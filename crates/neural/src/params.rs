//! Parameter storage, initialization, and the Adam optimizer.

use fairem_rng::rngs::StdRng;
use fairem_rng::Rng;

use crate::tensor::Tensor;

/// Named storage for trainable parameters, addressed by dense ids.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    values: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Create an empty store.
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a parameter; returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> usize {
        self.values.push(value);
        self.names.push(name.into());
        self.values.len() - 1
    }

    /// Register a Xavier/Glorot-uniform initialized `rows×cols` parameter.
    pub fn add_xavier(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut StdRng,
    ) -> usize {
        let limit = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..=limit))
            .collect();
        self.add(name, Tensor::from_flat(rows, cols, data))
    }

    /// Register an all-zeros parameter (biases).
    pub fn add_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> usize {
        self.add(name, Tensor::zeros(rows, cols))
    }

    /// Number of parameters registered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters have been registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow a parameter value.
    pub fn value(&self, id: usize) -> &Tensor {
        &self.values[id]
    }

    /// Mutably borrow a parameter value.
    pub fn value_mut(&mut self, id: usize) -> &mut Tensor {
        &mut self.values[id]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: usize) -> &str {
        &self.names[id]
    }

    /// Total number of scalar weights across all parameters.
    pub fn n_weights(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }
}

/// Adam optimizer state over a [`ParamStore`].
///
/// Every update is bit-identical to the plain per-element f32 formula
/// (IEEE-754 single precision, subnormals included) but never runs f32
/// arithmetic on subnormal values, which costs a microcode assist per
/// operation on common x86 cores. See [`Adam::step`].
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Create optimizer state matching a store's parameter shapes, with
    /// the standard betas (0.9, 0.999).
    pub fn new(store: &ParamStore, lr: f32) -> Adam {
        assert!(lr > 0.0, "learning rate must be positive");
        let m = (0..store.len())
            .map(|i| Tensor::zeros(store.value(i).rows, store.value(i).cols))
            .collect::<Vec<_>>();
        let v = m.clone();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }

    /// Apply one Adam update given per-parameter gradients (ids align
    /// with the store; `None` means zero gradient this step).
    ///
    /// Per weight this is the f32 formula
    /// `m ← β₁m + (1−β₁)g`, `v ← β₂v + (1−β₂)g·g`,
    /// `w ← w − lr·(m/b₁) / (√(v/b₂) + ε)`, evaluated in that order.
    /// Weights are updated in blocks of [`BLOCK`] lanes. A block whose
    /// `g`, `m` and `v` are all zero or well inside the normal range
    /// runs the formula in f32. Any other block takes
    /// [`Step::mixed_block`], which computes the same f32 bits without
    /// subnormal f32 arithmetic. Embedding rows that go untouched for
    /// a few hundred steps are the common case there: their `m` decays
    /// into the subnormal range and sticks.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Option<Tensor>]) {
        assert_eq!(
            grads.len(),
            store.len(),
            "gradient/parameter count mismatch"
        );
        self.t += 1;
        let step = Step::new(self);
        for (id, grad) in grads.iter().enumerate() {
            let Some(g) = grad else { continue };
            step.update(
                &mut store.value_mut(id).data,
                &g.data,
                &mut self.m[id].data,
                &mut self.v[id].data,
            );
        }
    }
}

/// Lanes per block of the Adam kernel.
const BLOCK: usize = 8;
/// Floors on the biased exponents of nonzero `g` and `v` lanes for the
/// f32 path: |g| ≥ 2⁻⁵⁶ keeps `(1−β₂)·g·g` normal, and |v| ≥ 2⁻¹²⁰ keeps
/// `β₂v` normal. `m` only has to be normal; a small normal `m` may cost
/// the f32 path an assist on `lr·m̂`, which is still cheaper than the
/// exact path.
const G_MIN_EXP: u32 = 127 - 56;
const V_MIN_EXP: u32 = 127 - 120;
/// 2⁻⁷⁰ as bits: the smallest |w| a decaying lane ([`decay_mask`]) has.
const DECAY_W_MIN_BITS: u32 = (127 - 70) << 23;
/// 2⁻¹²⁶, the smallest normal f32, as an f64.
const F32_MIN_NORMAL: f64 = f32::MIN_POSITIVE as f64;
/// 2⁻¹⁴⁹, the f32 subnormal spacing, as an f64.
const F32_TINY: f64 = f64::from_bits((1023 - 149) << 52);
/// 2¹⁴⁹.
const F32_TINY_INV: f64 = f64::from_bits((1023 + 149) << 52);
/// 2⁵²: adding and subtracting it rounds a non-negative f64 below 2⁵²
/// to an integer, ties to even.
const ROUND_INT: f64 = 4_503_599_627_370_496.0;
/// 1.5·2²⁹: see [`round32`].
const ROUND_24: f64 = 805_306_368.0;
/// `f32::MAX` and 2¹²⁸, as f64s.
const F32_MAX: f64 = f32::MAX as f64;
const F32_OVERFLOW: f64 = f64::from_bits((1023 + 128) << 52);
/// The exponent field of an f64.
const F64_EXP_MASK: u64 = 0x7ff0_0000_0000_0000;

/// One step's constants, shared by every path of the kernel.
#[derive(Debug, Clone, Copy)]
struct Step {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// `1 − β₁`, as the formula computes it in f32.
    c1: f32,
    /// `1 − β₂`.
    c2: f32,
    /// Bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ`.
    b1t: f32,
    b2t: f32,
    /// All ones when the subnormal-decay shortcut is exact at this step
    /// (see [`decay_mask`]), else zero.
    decay_ok: u32,
}

impl Step {
    fn new(opt: &Adam) -> Step {
        let b1t = 1.0 - opt.beta1.powi(opt.t as i32);
        let b2t = 1.0 - opt.beta2.powi(opt.t as i32);
        let gain = f64::from(opt.lr) / (f64::from(b1t) * f64::from(opt.eps));
        Step {
            lr: opt.lr,
            beta1: opt.beta1,
            beta2: opt.beta2,
            eps: opt.eps,
            c1: 1.0 - opt.beta1,
            c2: 1.0 - opt.beta2,
            b1t,
            b2t,
            decay_ok: mask(b1t > 0.0 && gain <= 2f64.powi(30)),
        }
    }

    /// Update one parameter tensor in place. Lengths follow `zip`: the
    /// shortest slice bounds the update.
    fn update(&self, w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let n = w.len().min(g.len()).min(m.len()).min(v.len());
        let (wb, wt) = w[..n].as_chunks_mut::<BLOCK>();
        let (gb, gt) = g[..n].as_chunks::<BLOCK>();
        let (mb, mt) = m[..n].as_chunks_mut::<BLOCK>();
        let (vb, vt) = v[..n].as_chunks_mut::<BLOCK>();
        for (((w, g), m), v) in wb.iter_mut().zip(gb).zip(mb.iter_mut()).zip(vb.iter_mut()) {
            if calm_block(g, m, v) {
                self.f32_block(w, g, m, v);
            } else {
                self.mixed_block(w, g, m, v);
            }
        }
        for (((w, &g), m), v) in wt.iter_mut().zip(gt).zip(mt.iter_mut()).zip(vt.iter_mut()) {
            self.lane(w, g, m, v);
        }
    }

    /// A block that is not calm throughout. When every lane is calm or
    /// in subnormal decay ([`decay_mask`]), the block runs the f32
    /// formula with `m = +0` on the decaying lanes, whose `m` then comes
    /// from [`Step::decayed`]; the lane tests are bit masks and this
    /// path is branch-free, so it vectorizes. Otherwise the block goes
    /// lane by lane ([`Step::lane`]).
    #[inline(never)]
    fn mixed_block(
        &self,
        w: &mut [f32; BLOCK],
        g: &[f32; BLOCK],
        m: &mut [f32; BLOCK],
        v: &mut [f32; BLOCK],
    ) {
        // Magnitude bits first, so the lane tests are plain loops over
        // integer arrays, which vectorize cleanly.
        let abs = |xs: &[f32; BLOCK]| xs.map(|x| x.to_bits() & 0x7fff_ffff);
        let (wa, ga, ma, va) = (abs(w), abs(g), abs(m), abs(v));
        let mut decaying = [0; BLOCK];
        let mut easy = !0;
        for j in 0..BLOCK {
            decaying[j] = self.decay_ok & decay_mask(wa[j], ga[j], ma[j]);
            easy &= decaying[j] | calm_mask(ga[j], ma[j], va[j]);
        }
        if easy == 0 {
            for j in 0..BLOCK {
                self.lane(&mut w[j], g[j], &mut m[j], &mut v[j]);
            }
            return;
        }
        let m0 = *m;
        for j in 0..BLOCK {
            m[j] = f32::from_bits(m0[j].to_bits() & !decaying[j]);
        }
        self.f32_block(w, g, m, v);
        for j in 0..BLOCK {
            let decayed = self.decayed(m0[j]).to_bits();
            m[j] = f32::from_bits(m[j].to_bits() & !decaying[j] | decayed & decaying[j]);
        }
    }

    /// The f32 formula over one block, on locals so the loop vectorizes.
    #[inline(always)]
    fn f32_block(
        &self,
        w: &mut [f32; BLOCK],
        g: &[f32; BLOCK],
        m: &mut [f32; BLOCK],
        v: &mut [f32; BLOCK],
    ) {
        let (mut wl, mut ml, mut vl) = (*w, *m, *v);
        for j in 0..BLOCK {
            self.f32_lane(&mut wl[j], g[j], &mut ml[j], &mut vl[j]);
        }
        (*w, *m, *v) = (wl, ml, vl);
    }

    /// One lane on its own (the tail of a tensor, or a block that
    /// [`Step::mixed_block`] cannot run as a whole): the f32 formula
    /// when the lane is calm or not finite (such lanes are never
    /// subnormal), else the exact path.
    fn lane(&self, w: &mut f32, g: f32, m: &mut f32, v: &mut f32) {
        let [ga, ma, va] = [g, *m, *v].map(|x| x.to_bits() & 0x7fff_ffff);
        if ![*w, g, *m, *v].iter().all(|&x| finite(x)) || calm_mask(ga, ma, va) != 0 {
            self.f32_lane(w, g, m, v);
        } else {
            self.exact_lane(w, g, m, v);
        }
    }

    /// The update formula in f32: exact by definition, fast unless an
    /// operand or result is subnormal.
    #[inline(always)]
    fn f32_lane(&self, w: &mut f32, g: f32, m: &mut f32, v: &mut f32) {
        *m = self.beta1 * *m + self.c1 * g;
        *v = self.beta2 * *v + self.c2 * g * g;
        let mhat = *m / self.b1t;
        let vhat = *v / self.b2t;
        *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
    }

    /// `β₁m` for a subnormal `m = ±k·2⁻¹⁴⁹`: `β₁k` is exact in f64 and
    /// rounds to the nearest integer, ties to even. It never rounds to
    /// zero (0.9 rounds up), and for k ≤ 4 it rounds back to k: the
    /// fixed point a row with no gradients ends in. Integers move in
    /// and out of f64 through the low mantissa bits of 2⁵² + k, which
    /// vectorizes where a cast would not.
    #[inline(always)]
    fn decayed(&self, m: f32) -> f32 {
        let bits = m.to_bits();
        let k = f64::from_bits(ROUND_INT.to_bits() | u64::from(bits & 0x007f_ffff)) - ROUND_INT;
        let rounded = f64::from(self.beta1) * k + ROUND_INT;
        f32::from_bits(bits & 0x8000_0000 | rounded.to_bits() as u32)
    }

    /// The update formula with every f32 operation evaluated in f64 and
    /// rounded to f32 by [`round32`]. This gives the f32 result bit for
    /// bit: a product of two f32 values is exact in f64, and for +, −,
    /// ÷ and √ rounding first to 53 bits and then to 24 is the same as
    /// rounding once, because 53 ≥ 2·24 + 2. No f32 arithmetic runs at
    /// all. For finite inputs only: with a NaN input the f32 formula's
    /// choice of which NaN to propagate is what defines the result.
    #[inline(always)]
    fn exact_lane(&self, w: &mut f32, g: f32, m: &mut f32, v: &mut f32) {
        let [beta1, beta2, c1, c2] = [self.beta1, self.beta2, self.c1, self.c2].map(f64::from);
        let g = widen(g);
        let m1 = round32(round32(beta1 * widen(*m)) + round32(c1 * g));
        let v1 = round32(round32(beta2 * widen(*v)) + round32(round32(c2 * g) * g));
        let mhat = round32(m1 / f64::from(self.b1t));
        let vhat = round32(v1 / f64::from(self.b2t));
        let den = round32(round32(vhat.sqrt()) + f64::from(self.eps));
        let delta = round32(round32(f64::from(self.lr) * mhat) / den);
        *w = narrow(round32(widen(*w) - delta));
        *m = narrow(m1);
        *v = narrow(v1);
    }
}

/// Whether every lane of a block is calm ([`calm_mask`]). One
/// reduction per array, which vectorizes cleanly.
#[inline(always)]
fn calm_block(g: &[f32; BLOCK], m: &[f32; BLOCK], v: &[f32; BLOCK]) -> bool {
    let tiny = |xs: &[f32; BLOCK], min_exp: u32| {
        xs.iter().fold(0, |acc, x| {
            acc | within(x.to_bits() & 0x7fff_ffff, 1, min_exp << 23)
        })
    };
    tiny(g, G_MIN_EXP) | tiny(m, 1) | tiny(v, V_MIN_EXP) == 0
}

/// Whether a lane is calm: `g`, `m` and `v` each zero or above its
/// floor ([`G_MIN_EXP`]), as an all-ones or all-zeros mask. This and
/// the other lane tests take magnitude bits (`to_bits() & 0x7fff_ffff`)
/// and never touch the FPU. The floors only choose a path; every path
/// is exact.
#[inline(always)]
fn calm_mask(g: u32, m: u32, v: u32) -> u32 {
    !(within(g, 1, G_MIN_EXP << 23) | within(m, 1, 0x0080_0000) | within(v, 1, V_MIN_EXP << 23))
}

/// Whether a lane is in subnormal decay, the state of an embedding row
/// that no longer gets gradients: `g = ±0`, `m` subnormal and
/// |w| ≥ 2⁻⁷⁰, as a mask. While [`Step`]'s `decay_ok` holds, `m ← β₁m`
/// rounded on the subnormal grid ([`Step::decayed`]), and the f32
/// formula run with `m = +0` gives the exact `v` and `w`. `v` does not
/// depend on `m`. For `w`, the true step is `lr·m̂/d` with
/// `d = √v̂ + ε`. If `d` is NaN both steps are the same NaN. Otherwise
/// `d ≥ ε` and |m̂| < 2⁻¹²⁶/b₁, so the step is below
/// 2⁻¹²⁶·lr/(b₁ε)·(1+2⁻²³)³ ≤ 2⁻⁹⁶·(1+2⁻²¹) while `lr/(b₁ε) ≤ 2³⁰`:
/// less than half the spacing below any |w| ≥ 2⁻⁷⁰, so `w` keeps its
/// bits, as it does for a step of +0.
#[inline(always)]
fn decay_mask(w: u32, g: u32, m: u32) -> u32 {
    within(g, 0, 1) & within(m, 1, 0x0080_0000) & within(w, DECAY_W_MIN_BITS, 0x8000_0000)
}

/// Whether `x` is finite, read from its bits.
#[inline(always)]
fn finite(x: f32) -> bool {
    x.to_bits() & 0x7f80_0000 != 0x7f80_0000
}

/// `lo ≤ x < hi` as an all-ones or all-zeros mask.
#[inline(always)]
fn within(x: u32, lo: u32, hi: u32) -> u32 {
    mask(x.wrapping_sub(lo) < hi - lo)
}

/// `c` as an all-ones or all-zeros mask.
#[inline(always)]
fn mask(c: bool) -> u32 {
    0u32.wrapping_sub(u32::from(c))
}

// The exact path's conversions between f32 and f64 are done in integer
// and f64 arithmetic only. A hardware conversion is an f32 operation: on
// a subnormal it takes the very assist this path exists to avoid, and
// the compiler may hoist a conversion above a select that was meant to
// keep subnormals away from it.

/// A finite `x` as an f64.
#[inline(always)]
fn widen(x: f32) -> f64 {
    let bits = x.to_bits();
    let sign = f64::from_bits(u64::from(bits & 0x8000_0000) << 32);
    let exp = u64::from(bits >> 23 & 0xff);
    let frac = u64::from(bits & 0x007f_ffff);
    // Normal: rebias the exponent from 127 to 1023, widen the fraction.
    let normal = f64::from_bits((exp + 896) << 52 | frac << 29).copysign(sign);
    // Zero or subnormal: frac·2⁻¹⁴⁹, with frac read out of 2⁵² + frac.
    let small =
        ((f64::from_bits(ROUND_INT.to_bits() | frac) - ROUND_INT) * F32_TINY).copysign(sign);
    if exp == 0 {
        small
    } else {
        normal
    }
}

/// Round `x` to the nearest f32 value, ties to even, overflowing to
/// ±∞, kept as an f64. Adding and subtracting `c = 1.5·2^(e+29)`,
/// where 2^e is the binade of `x` clamped to [2⁻¹²⁶, 2¹²⁸], rounds `x`
/// to a multiple of 2^(e−23): 24 significant bits, or the 2⁻¹⁴⁹ grid
/// below 2⁻¹²⁶.
#[inline(always)]
fn round32(x: f64) -> f64 {
    let binade = f64::from_bits(x.to_bits() & F64_EXP_MASK).clamp(F32_MIN_NORMAL, F32_OVERFLOW);
    let c = binade * ROUND_24;
    let r = ((x + c) - c).copysign(x);
    if r.abs() > F32_MAX {
        f64::INFINITY.copysign(x)
    } else {
        r
    }
}

/// An f64 that holds an f32 value (or ±∞ or a NaN), as that f32.
#[inline(always)]
fn narrow(x: f64) -> f32 {
    let bits = x.to_bits();
    let sign = (bits >> 32) as u32 & 0x8000_0000;
    let a = x.abs();
    // Normal: rebias the exponent from 1023 to 127; the low 29 fraction
    // bits are zero.
    let normal = (a.to_bits() >> 29).wrapping_sub(896 << 23) as u32;
    // Below 2⁻¹²⁶: the integer |x|·2¹⁴⁹, read out of 2⁵² + it.
    let small = (a * F32_TINY_INV + ROUND_INT).to_bits() as u32 & 0x007f_ffff;
    // ±∞ and NaN keep the top of the payload, as the hardware does.
    let special = 0x7f80_0000 | (bits >> 29) as u32 & 0x007f_ffff;
    let magnitude = if a < F32_MIN_NORMAL {
        small
    } else if a <= F32_MAX {
        normal
    } else {
        special
    };
    f32::from_bits(sign | magnitude)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairem_rng::check::Gen;
    use fairem_rng::SeedableRng;

    #[test]
    fn store_registration_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::scalar(1.0));
        let b = s.add_zeros("b", 1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.value(b).cols, 3);
        assert_eq!(s.n_weights(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn xavier_respects_limit_and_seed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = ParamStore::new();
        let id = s.add_xavier("w", 10, 10, &mut rng);
        let limit = (6.0f64 / 20.0).sqrt() as f32;
        assert!(s.value(id).data.iter().all(|v| v.abs() <= limit));
        // Same seed → same init.
        let mut rng2 = StdRng::seed_from_u64(3);
        let mut s2 = ParamStore::new();
        let id2 = s2.add_xavier("w", 10, 10, &mut rng2);
        assert_eq!(s.value(id), s2.value(id2));
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize f(w) = (w - 3)² by feeding grad = 2(w - 3).
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::scalar(0.0));
        let mut opt = Adam::new(&s, 0.1);
        for _ in 0..500 {
            let w = s.value(id).item();
            let grad = Tensor::scalar(2.0 * (w - 3.0));
            opt.step(&mut s, &[Some(grad)]);
        }
        assert!((s.value(id).item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_skips_missing_gradients() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::scalar(1.0));
        let b = s.add("b", Tensor::scalar(2.0));
        let mut opt = Adam::new(&s, 0.5);
        opt.step(&mut s, &[Some(Tensor::scalar(1.0)), None]);
        assert!(s.value(a).item() < 1.0);
        assert_eq!(s.value(b).item(), 2.0);
    }

    /// The original per-element f32 loop, kept as the oracle the block
    /// kernel must match bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn reference_update(lr: f32, t: u64, w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        // Opaque, as in `Adam::step`: constant-folded `powi` rounds
        // differently from the runtime one.
        let t = std::hint::black_box(t);
        let b1t = 1.0 - beta1.powi(t as i32);
        let b2t = 1.0 - beta2.powi(t as i32);
        for ((wi, (&gi, mi)), vi) in w
            .iter_mut()
            .zip(g.iter().zip(m.iter_mut()))
            .zip(v.iter_mut())
        {
            *mi = beta1 * *mi + (1.0 - beta1) * gi;
            *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
            let mhat = *mi / b1t;
            let vhat = *vi / b2t;
            *wi -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    fn kernel_at(lr: f32, t: u64) -> Step {
        let mut opt = Adam::new(&ParamStore::new(), lr);
        opt.t = t;
        Step::new(&opt)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A value from the regions the exact path exists for: ±0, the
    /// stuck `k·2⁻¹⁴⁹`, arbitrary subnormals, both sides of 2⁻¹²⁶,
    /// tiny normals, magnitudes whose squares overflow, and ordinary
    /// training magnitudes.
    fn awkward(gen: &mut Gen) -> f32 {
        let sign = if gen.bool(0.5) { -1.0f32 } else { 1.0 };
        let x = match gen.usize_in(0, 9) {
            0 => 0.0,
            1 => f32::from_bits(gen.usize_in(1, 6) as u32),
            2 => f32::from_bits(gen.usize_in(1, 0x0080_0000) as u32),
            3 => f32::from_bits(0x0080_0000 + gen.usize_in(0, 64) as u32 - 32),
            4 => f32::from_bits(gen.usize_in(0x0080_0000, 0x1a00_0000) as u32),
            5 => (2.0f64.powf(gen.f64_in(-110.0, -40.0))) as f32,
            6 => (2.0f64.powf(gen.f64_in(40.0, 127.0))) as f32,
            _ => gen.f64_in(1e-6, 2.0) as f32,
        };
        sign * x
    }

    /// Second moments are never negative in training, but the kernel
    /// must match the formula for any input.
    fn awkward_v(gen: &mut Gen) -> f32 {
        let v = awkward(gen);
        if gen.bool(0.9) {
            v.abs()
        } else {
            v
        }
    }

    fn awkward_w(gen: &mut Gen) -> f32 {
        match gen.usize_in(0, 5) {
            0 => 0.0,
            1 => f32::from_bits(1 << 31),
            2 => (2.0f64.powf(gen.f64_in(-90.0, -60.0))) as f32,
            3 => awkward(gen),
            _ => gen.f64_in(-1.0, 1.0) as f32,
        }
    }

    #[test]
    fn block_kernel_matches_the_f32_formula_bit_for_bit() {
        fairem_rng::check::cases(3000, 0xada7, |gen| {
            // Lengths straddle the block width on purpose.
            let n = gen.usize_in(0, 4 * BLOCK + 3);
            let t = *gen.pick(&[1, 2, 3, 40, 800, 5_000, 1_000_000]);
            let lr = *gen.pick(&[0.02f32, 0.05, 1e-3, 0.5, 3e6]);
            // Arbitrary lanes; training-like ones that are calm, in
            // subnormal decay or have a small gradient, so blocks mix
            // the three; or decay only, as in an embedding row long out
            // of use.
            let kind = gen.usize_in(0, 3);
            let (mut g, mut m, mut v, mut w) = (vec![], vec![], vec![], vec![]);
            for _ in 0..n {
                let lane_kind = if kind == 2 { 1 } else { gen.usize_in(0, 3) };
                let lane = if kind == 0 {
                    [awkward(gen), awkward(gen), awkward_v(gen), awkward_w(gen)]
                } else {
                    match lane_kind {
                        0 => {
                            let gi = gen.f64_in(-0.5, 0.5) as f32;
                            [
                                gi,
                                gen.f64_in(-0.1, 0.1) as f32,
                                gen.f64_in(0.0, 0.1) as f32,
                                0.3,
                            ]
                        }
                        // Decay: `v = 0` makes the step as large as it
                        // gets, against |w| down to near the 2⁻⁷⁰ floor;
                        // a negative `v` makes `w` NaN. Now and then a
                        // `-0` or subnormal `g`, which only `±0` decays.
                        1 => {
                            let gi = match gen.usize_in(0, 8) {
                                0 => -0.0,
                                1 => f32::from_bits(gen.usize_in(1, 0x0080_0000) as u32),
                                _ => 0.0,
                            };
                            let mi = f32::from_bits(gen.usize_in(1, 0x0080_0000) as u32);
                            let vi = match gen.usize_in(0, 10) {
                                0..=2 => 0.0,
                                3 => -gen.f64_in(1e-9, 0.1) as f32,
                                _ => gen.f64_in(1e-9, 0.1) as f32,
                            };
                            let wi = if gen.bool(0.5) {
                                gen.f64_in(-1.0, 1.0) as f32
                            } else {
                                2.0f64.powf(gen.f64_in(-110.0, -60.0)) as f32
                            };
                            [gi, mi, vi, wi]
                        }
                        // Small gradients on both sides of the calm
                        // floor, against small `v`.
                        _ => {
                            let gi = 2.0f64.powf(gen.f64_in(-121.0, -35.0)) as f32;
                            let vi = 2.0f64.powf(gen.f64_in(-115.0, -2.0)) as f32;
                            [
                                gi,
                                gen.f64_in(-0.1, 0.1) as f32,
                                vi,
                                gen.f64_in(-1.0, 1.0) as f32,
                            ]
                        }
                    }
                };
                g.push(lane[0]);
                m.push(lane[1]);
                v.push(lane[2]);
                w.push(lane[3]);
            }
            // Now and then an infinity or a NaN, which sends its block
            // lane by lane.
            if n > 0 && gen.bool(0.1) {
                let odd = *gen.pick(&[f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
                let at = gen.usize_in(0, n);
                match gen.usize_in(0, 4) {
                    0 => g[at] = odd,
                    1 => m[at] = odd,
                    2 => v[at] = odd,
                    _ => w[at] = odd,
                }
            }
            let (mut rw, mut rm, mut rv) = (w.clone(), m.clone(), v.clone());
            reference_update(lr, t, &mut rw, &g, &mut rm, &mut rv);
            kernel_at(lr, t).update(&mut w, &g, &mut m, &mut v);
            let ctx = format!("lr={lr} t={t} g={:?}", bits(&g));
            assert_eq!(bits(&m), bits(&rm), "m: {ctx}");
            assert_eq!(bits(&v), bits(&rv), "v: {ctx}");
            assert_eq!(bits(&w), bits(&rw), "w: {ctx}");
        });
    }

    #[test]
    fn every_lane_path_matches_the_f32_formula() {
        // One lane at a time, through the dispatcher and straight
        // through the exact path, so every draw reaches the exact path
        // even when a cheaper one would have been taken.
        fairem_rng::check::cases(20_000, 0x5ab0, |gen| {
            let t = *gen.pick(&[1, 2, 17, 165, 166, 10_000, u64::from(u32::MAX)]);
            let lr = *gen.pick(&[0.02f32, 0.05, 1e-3, 0.5, 3e6]);
            let step = kernel_at(lr, t);
            let g = awkward(gen);
            let (m, v, w) = (awkward(gen), awkward_v(gen), awkward_w(gen));
            let (mut rm, mut rv, mut rw) = ([m], [v], [w]);
            reference_update(lr, t, &mut rw, &[g], &mut rm, &mut rv);
            let want = [rw[0], rm[0], rv[0]].map(f32::to_bits);
            let ctx = format!("lr={lr} t={t} g={g:e} m={m:e} v={v:e} w={w:e}");
            let (mut m1, mut v1, mut w1) = (m, v, w);
            step.lane(&mut w1, g, &mut m1, &mut v1);
            assert_eq!([w1, m1, v1].map(f32::to_bits), want, "lane: {ctx}");
            let (mut m2, mut v2, mut w2) = (m, v, w);
            step.exact_lane(&mut w2, g, &mut m2, &mut v2);
            assert_eq!([w2, m2, v2].map(f32::to_bits), want, "exact: {ctx}");
        });
    }

    #[test]
    fn subnormal_first_moments_decay_on_the_grid_and_stick() {
        let step = kernel_at(0.02, 5_000);
        assert_ne!(step.decay_ok, 0);
        // 0.9·k rounded to even: k ≤ 4 is a fixed point, 5 → 4.
        let ks = [1, 2, 3, 4, 5, 10, 0x7f_ffff, 0x40_0000];
        let next = [1, 2, 3, 4, 4, 9, 7_549_746, 3_774_874];
        for sign in [0, 1u32 << 31] {
            let m0: Vec<f32> = ks.iter().map(|&k| f32::from_bits(sign | k)).collect();
            // A whole block in decay, then one that mixes in calm lanes.
            for calm_lanes in [0, 3] {
                let mut g = vec![0.0f32; BLOCK];
                let mut m = m0.clone();
                for j in 0..calm_lanes {
                    (g[j], m[j]) = (0.01, 0.002);
                }
                let (mut w, mut v) = (vec![0.25f32; BLOCK], vec![3e-7f32; BLOCK]);
                let (mut rw, mut rm, mut rv) = (w.clone(), m.clone(), v.clone());
                reference_update(0.02, 5_000, &mut rw, &g, &mut rm, &mut rv);
                step.update(&mut w, &g, &mut m, &mut v);
                assert_eq!(
                    (bits(&w), bits(&m), bits(&v)),
                    (bits(&rw), bits(&rm), bits(&rv))
                );
                for j in calm_lanes..BLOCK {
                    assert_eq!(m[j].to_bits(), sign | next[j], "k={}", ks[j]);
                    assert_eq!(w[j], 0.25);
                }
            }
        }
        // A huge learning rate voids the shortcut.
        assert_eq!(kernel_at(3e6, 5_000).decay_ok, 0);
    }

    #[test]
    fn conversions_match_the_hardware() {
        fairem_rng::check::cases(50_000, 0x0032, |gen| {
            let x = match gen.usize_in(0, 6) {
                // Straddle the subnormal range, with exact midpoints.
                0 => gen.f64_in(0.0, 2.0 * F32_MIN_NORMAL),
                1 => (gen.usize_in(0, 1 << 24) as f64 + 0.5) * F32_TINY,
                2 => 2.0f64.powf(gen.f64_in(-160.0, -100.0)),
                // Any f64 of f32 magnitude, and exact ties between two
                // normal f32 values.
                3 => {
                    let exp = gen.usize_in(1023 - 130, 1023 + 130) as u64;
                    f64::from_bits(exp << 52 | gen.u64() >> 12)
                }
                4 => {
                    let y = f32::from_bits(gen.usize_in(0x0080_0000, 0x7f00_0000) as u32);
                    let ulp = f64::from(f32::from_bits(y.to_bits() + 1)) - f64::from(y);
                    f64::from(y) + ulp / 2.0
                }
                // Around the overflow threshold, 2¹²⁸ − 2¹⁰³.
                _ => F32_OVERFLOW - 2.0f64.powi(103) + gen.f64_in(-2.0, 2.0) * 2.0f64.powi(102),
            };
            let x = if gen.bool(0.5) { -x } else { x };
            let hw = x as f32;
            assert_eq!(round32(x).to_bits(), f64::from(hw).to_bits(), "{x:e}");
            assert_eq!(narrow(round32(x)).to_bits(), hw.to_bits(), "{x:e}");
            if hw.is_finite() {
                assert_eq!(widen(hw).to_bits(), f64::from(hw).to_bits(), "{x:e}");
            }
        });
        for x in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
        ] {
            assert_eq!(narrow(x).to_bits(), (x as f32).to_bits(), "{x}");
            assert_eq!(round32(x).to_bits(), f64::from(x as f32).to_bits(), "{x}");
        }
    }

    #[test]
    fn sparse_training_matches_the_reference_optimizer_every_step() {
        // Embedding-like use: most rows see a zero gradient most steps,
        // so their first moments decay into the subnormal range and
        // stick there — the case the exact path exists for.
        let (rows, cols) = (24, 11);
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let id = store.add_xavier("emb", rows, cols, &mut rng);
        let bias = store.add_zeros("b", 1, 3);
        let mut opt = Adam::new(&store, 0.02);
        let mut rw = store.value(id).data.clone();
        let (mut rm, mut rv) = (vec![0.0; rw.len()], vec![0.0; rw.len()]);
        let mut subnormal_seen = false;
        for t in 1..=2_000u64 {
            let mut g = Tensor::zeros(rows, cols);
            for r in 0..rows {
                // Row r is touched every 2^r-ish steps; high rows never
                // again after the first few.
                if t < 40 || (r < 6 && t % (1 << r) == 0) || rng.gen_range(0..1000) == 0 {
                    for c in 0..cols {
                        g.data[r * cols + c] = rng.gen_range(-0.5f32..0.5);
                    }
                }
            }
            reference_update(0.02, t, &mut rw, &g.data, &mut rm, &mut rv);
            opt.step(&mut store, &[Some(g), Some(Tensor::zeros(1, 3))]);
            assert_eq!(bits(&store.value(id).data), bits(&rw), "w at step {t}");
            assert_eq!(bits(&opt.m[id].data), bits(&rm), "m at step {t}");
            assert_eq!(bits(&opt.v[id].data), bits(&rv), "v at step {t}");
            subnormal_seen |= rm.iter().any(|x| x.is_subnormal());
        }
        assert!(subnormal_seen, "the fixture must drive some m subnormal");
        assert!(store.value(bias).data.iter().all(|&b| b == 0.0));
    }
}
