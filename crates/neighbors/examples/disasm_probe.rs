//! Non-inlined anchors around the distance kernels so
//! `scripts/check_vectorization.sh` has stable symbols to disassemble.
//!
//! The kernels themselves are `#[inline]`/`#[inline(always)]` — they never
//! get standalone symbols in a real build — so this example pins each one
//! inside an `#[inline(never)]` wrapper, letting objdump inspect exactly
//! the code shape the library inlines everywhere else.

use iim_neighbors::{sq_dist_f, sq_dist_many, sq_dist_many_fixed, sq_dist_on};

#[inline(never)]
pub fn probe_sq_dist_f(a: &[f64], b: &[f64]) -> f64 {
    sq_dist_f(a, b)
}

#[inline(never)]
pub fn probe_sq_dist_many(query: &[f64], block: &[f64], out: &mut [f64]) {
    sq_dist_many(query, block, out)
}

/// The width-4 form of the prefix scan's width-specialized distance pass.
#[inline(never)]
pub fn probe_sq_dist_many_fixed4(query: &[f64; 4], block: &[f64], out: &mut [f64]) {
    sq_dist_many_fixed(query, block, out)
}

#[inline(never)]
pub fn probe_sq_dist_on(a: &[f64], b: &[f64], attrs: &[usize]) -> f64 {
    sq_dist_on(a, b, attrs)
}

fn main() {
    // Touch every probe with runtime-opaque data so none is optimized out.
    let n: usize = std::env::args().count() + 15; // ≥16, unknown at compile time
    let a: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let b: Vec<f64> = (0..n).map(|i| i as f64 * -0.25 + 1.0).collect();
    let block: Vec<f64> = (0..n * 8).map(|i| (i % 97) as f64).collect();
    let mut out = vec![0.0; 8];
    let attrs: Vec<usize> = (0..n).collect();
    let d1 = probe_sq_dist_f(&a, &b);
    probe_sq_dist_many(&a, &block, &mut out);
    let d2 = probe_sq_dist_on(&a, &b, &attrs);
    let mut out4 = vec![0.0; 2 * n];
    probe_sq_dist_many_fixed4(&[a[0], a[1], a[2], a[3]], &block, &mut out4);
    println!(
        "{d1} {} {d2} {}",
        out.iter().sum::<f64>(),
        out4.iter().sum::<f64>()
    );
}
