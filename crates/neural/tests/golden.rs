//! Golden scores: each Lite model, trained on a fixed fixture, must
//! score it to the exact bits the plain per-element Adam loop gives.
//!
//! The fixture is built so that embedding rows go untouched for
//! hundreds of steps: most tokens occur in one pair only, so over two
//! shuffled epochs a row is touched twice, often ~1000 steps apart. Its
//! first moment decays by 0.9 a step, below 2⁻¹²⁶ after roughly 750
//! steps, and sticks at a few multiples of 2⁻¹⁴⁹. The optimizer's
//! subnormal paths therefore carry most of the embedding table through
//! training, and any bit they get wrong moves a digest below.

use fairem_neural::{
    DeepMatcherLite, DittoLite, HashVocab, HierMatcherLite, McanLite, NeuralMatcher, TokenPair,
    TrainConfig,
};

const CONFIG: TrainConfig = TrainConfig {
    vocab_size: 4096,
    embed_dim: 8,
    hidden: 8,
    epochs: 2,
    lr: 0.02,
    seed: 7,
};

/// 900 pairs with two attributes; a third are matches. Name tokens are
/// unique to their pair, affiliations come from a short shared list.
fn fixture() -> (Vec<TokenPair>, Vec<f64>) {
    let vocab = HashVocab::new(CONFIG.vocab_size);
    let affils = ["uic", "rochester", "att labs", "tsinghua", "munich", "qcri"];
    let mut pairs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..900 {
        let name = format!("given{i} family{i}");
        let affil = affils[i % affils.len()];
        let is_match = i % 3 == 0;
        let (other, other_affil) = if is_match {
            (name.clone(), affil)
        } else {
            (
                format!("other{i} family{i}"),
                affils[(i + 1) % affils.len()],
            )
        };
        pairs.push(TokenPair {
            left: vec![vocab.encode_words(&name), vocab.encode_words(affil)],
            right: vec![vocab.encode_words(&other), vocab.encode_words(other_affil)],
        });
        labels.push(if is_match { 1.0 } else { 0.0 });
    }
    (pairs, labels)
}

/// FNV-1a 64 over the little-endian bits of every score.
fn digest(scores: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn trained_digest(mut model: Box<dyn NeuralMatcher>) -> u64 {
    let (pairs, labels) = fixture();
    model.fit(&pairs, &labels);
    digest(&model.score_all(&pairs))
}

#[test]
fn deepmatcher_scores_match_the_golden_digest() {
    assert_eq!(
        trained_digest(Box::new(DeepMatcherLite::new(CONFIG))),
        0xb1a1_ccbd_7794_450c
    );
}

#[test]
fn ditto_scores_match_the_golden_digest() {
    assert_eq!(
        trained_digest(Box::new(DittoLite::new(CONFIG))),
        0xb9e0_48c5_49fa_590e
    );
}

#[test]
fn hiermatcher_scores_match_the_golden_digest() {
    assert_eq!(
        trained_digest(Box::new(HierMatcherLite::new(CONFIG))),
        0xaf02_9209_be3f_f359
    );
}

#[test]
fn mcan_scores_match_the_golden_digest() {
    assert_eq!(
        trained_digest(Box::new(McanLite::new(CONFIG))),
        0xae70_0432_6343_4604
    );
}
