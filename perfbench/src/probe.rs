//! Layer probes on a workload's own inputs, for the traced run: the
//! blocking layer's candidate set and its per-group recall, and the
//! cost of each similarity kernel on the pairs that blocking keeps.

use std::hint::black_box;

use fairem_core::blocking::{blocking_recall, per_group_blocking_recall};
use fairem_core::prep::PrepConfig;
use fairem_core::schema::Table;
use fairem_core::sensitive::{GroupSpace, SensitiveAttr};
use fairem_core::{Blocker, Exec, Parallelism, TokenBlocking, WorkerPool};
use fairem_csvio::parse_csv_str;
use fairem_text::{measure_cells, PreparedColumn, SimScratch, StringMeasure, TokenInterner};

use crate::audit::JOBS;
use crate::inputs::Inputs;
use crate::sys::Stopwatch;

/// Kernels timed on every workload: the edit-distance, set and hybrid
/// families of the feature battery.
pub const KERNELS: [StringMeasure; 6] = [
    StringMeasure::Levenshtein,
    StringMeasure::JaroWinkler,
    StringMeasure::JaccardWords,
    StringMeasure::JaccardQgrams,
    StringMeasure::CosineWords,
    StringMeasure::MongeElkan,
];

/// Candidate pairs the kernels are timed on, spread evenly over the
/// candidate set.
const KERNEL_PAIRS: usize = 20_000;

fn table(csv: &str) -> Result<Table, String> {
    let t = parse_csv_str(csv).map_err(|e| e.to_string())?;
    Table::from_csv(t).map_err(|e| format!("{e:?}"))
}

/// Probe blocking on `columns` and the kernels on the first of them.
pub fn probe(inputs: &Inputs, columns: &[String]) -> Result<Vec<(String, f64)>, String> {
    let ta = table(&inputs.table_a)?;
    let tb = table(&inputs.table_b)?;
    let blocker = TokenBlocking {
        columns: columns.to_vec(),
        max_block: PrepConfig::default().max_block,
    };
    let exec = Exec::with_pool(WorkerPool::with_parallelism(Parallelism::Fixed(JOBS)));
    let start = Stopwatch::start();
    let cands = blocker.candidates(&ta, &tb, &exec);
    let blocking_s = start.secs();

    let m = parse_csv_str(&inputs.matches).map_err(|e| e.to_string())?;
    let truth: Vec<(usize, usize)> = m
        .rows
        .iter()
        .filter_map(|r| Some((ta.row_of(&r[0])?, tb.row_of(&r[1])?)))
        .collect();
    let recall = blocking_recall(&cands, &truth);
    let hits = (recall * truth.len() as f64).round();
    let attrs = inputs
        .sensitive
        .iter()
        .map(SensitiveAttr::categorical)
        .collect();
    let space = GroupSpace::extract(&[&ta, &tb], attrs);
    let enc_a = space.encode_table(&ta);
    let enc_b = space.encode_table(&tb);
    let min_group = per_group_blocking_recall(&cands, &truth, &enc_a, &enc_b, &space)
        .into_iter()
        .filter(|(_, r, support)| *support > 0 && r.is_finite())
        .map(|(_, r, _)| r)
        .fold(f64::INFINITY, f64::min);

    let mut out = vec![
        ("blocking.probe_s".to_owned(), blocking_s),
        ("blocking.candidates".to_owned(), cands.len() as f64),
        (
            "blocking.pair_quality".to_owned(),
            hits / (cands.len().max(1) as f64),
        ),
        ("blocking.recall".to_owned(), recall),
        ("blocking.recall.min_group".to_owned(), min_group),
    ];

    let col = columns.first().ok_or("no blocking column")?;
    let (ca, cb) = match (ta.column_index(col), tb.column_index(col)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(format!("column {col:?} missing")),
    };
    let mut interner = TokenInterner::new();
    let pa = PreparedColumn::prepare((0..ta.len()).map(|r| ta.value(r, ca)), &mut interner);
    let pb = PreparedColumn::prepare((0..tb.len()).map(|r| tb.value(r, cb)), &mut interner);
    let step = (cands.len() / KERNEL_PAIRS).max(1);
    let pairs: Vec<(usize, usize)> = cands
        .iter()
        .step_by(step)
        .take(KERNEL_PAIRS)
        .copied()
        .collect();
    let mut scratch = SimScratch::new();
    for measure in KERNELS {
        let start = Stopwatch::start();
        let mut acc = 0.0;
        for &(i, j) in &pairs {
            acc += measure_cells(measure, &pa, i, &pb, j, &interner, &mut scratch);
        }
        black_box(acc);
        let ns = start.secs() * 1e9 / pairs.len().max(1) as f64;
        out.push((format!("kernel.{measure:?}.ns_per_pair"), ns));
    }
    out.push(("kernel.pairs".to_owned(), pairs.len() as f64));
    Ok(out)
}
