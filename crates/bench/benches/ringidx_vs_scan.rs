//! `ringidx` vs the linear scan it replaced: successor queries and bulk
//! ring construction at n = 10³ / 10⁴.
//!
//! Besides the criterion groups, the run measures the headline comparison
//! itself and appends one machine-readable point to the
//! `BENCH_ringidx.json` history at the repo root (entries keyed by
//! `RP_BENCH_SHA`, deduped per revision — see `bench::history`). The
//! acceptance bar for the index is a ≥10× successor-query speedup at
//! n = 10⁴. The point also times the index's successor query alone at
//! n = 10⁵ / 10⁶, where the chunk list outgrows the cache and the
//! chunk-level search reads the fence column (a scan there would take
//! milliseconds per query).

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use keyspace::{KeySpace, Point};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ringidx::RingIndex;

const SIZES: [usize; 2] = [1_000, 10_000];
/// Sizes timed on the index side only.
const INDEX_ONLY_SIZES: [usize; 2] = [100_000, 1_000_000];

fn entries(space: KeySpace, n: usize, seed: u64) -> Vec<(Point, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (space.random_point(&mut rng), i as u64))
        .collect()
}

/// The arena scan `truth_successor_id` used to run on every ground-truth
/// query: minimum clockwise distance over all live entries.
fn scan_successor(space: KeySpace, members: &[(Point, u64)], x: Point) -> (Point, u64) {
    members
        .iter()
        .copied()
        .min_by_key(|&(p, id)| (space.distance(x, p).get(), id))
        .expect("non-empty member list")
}

fn bench_successor(c: &mut Criterion) {
    let space = KeySpace::full();
    let mut group = c.benchmark_group("successor");
    for n in SIZES {
        let members = entries(space, n, 7);
        let index = RingIndex::bulk(space, members.clone());
        let mut rng = StdRng::seed_from_u64(11);
        group.bench_with_input(BenchmarkId::new("ringidx", n), &n, |b, _| {
            b.iter(|| index.successor(black_box(space.random_point(&mut rng))))
        });
        let mut rng = StdRng::seed_from_u64(11);
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| scan_successor(space, &members, black_box(space.random_point(&mut rng))))
        });
    }
    group.finish();
}

fn bench_bulk_build(c: &mut Criterion) {
    let space = KeySpace::full();
    let mut group = c.benchmark_group("bulk_build");
    group.sample_size(20);
    for n in SIZES {
        let members = entries(space, n, 13);
        group.bench_with_input(BenchmarkId::new("ringidx", n), &n, |b, _| {
            b.iter(|| RingIndex::bulk(space, black_box(members.clone())))
        });
    }
    group.finish();
}

/// Times `op` and returns mean nanoseconds per iteration.
fn measure<O>(iters: u32, mut op: impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(op());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One trajectory point: the headline numbers, re-measured outside
/// criterion so they can be serialized.
fn emit_json_point() {
    let space = KeySpace::full();
    let mut lines = Vec::new();
    for n in SIZES {
        let members = entries(space, n, 7);
        let index = RingIndex::bulk(space, members.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let index_ns = measure(20_000, || index.successor(space.random_point(&mut rng)));
        let mut rng = StdRng::seed_from_u64(11);
        let scan_iters = if n >= 10_000 { 2_000 } else { 10_000 };
        let scan_ns = measure(scan_iters, || {
            scan_successor(space, &members, space.random_point(&mut rng))
        });
        let bulk_ns = measure(20, || RingIndex::bulk(space, members.clone()));
        lines.push(format!(
            "{{\"bench\": \"ringidx_vs_scan\", \"n\": {n}, \
             \"successor_index_ns\": {index_ns:.1}, \"successor_scan_ns\": {scan_ns:.1}, \
             \"successor_speedup\": {:.1}, \"bulk_build_ns\": {bulk_ns:.0}}}",
            scan_ns / index_ns.max(1e-9),
        ));
    }
    for n in INDEX_ONLY_SIZES {
        let index = RingIndex::bulk(space, entries(space, n, 7));
        let mut rng = StdRng::seed_from_u64(11);
        let index_ns = measure(200_000, || index.successor(space.random_point(&mut rng)));
        lines.push(format!(
            "{{\"bench\": \"ringidx_vs_scan\", \"n\": {n}, \
             \"successor_index_ns\": {index_ns:.1}}}"
        ));
    }
    // CARGO_MANIFEST_DIR = crates/bench; the trajectory file lives at the
    // repo root so the PR driver can diff it across revisions. Appended
    // as a history entry keyed by RP_BENCH_SHA (see bench::history).
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ringidx.json");
    match bench::history::append_entry(&path, &lines) {
        Ok(sha) => println!("json point [{sha}] -> {}", path.display()),
        Err(e) => println!("json point not persisted ({e}); [{}]", lines.join(", ")),
    }
}

criterion_group!(benches, bench_successor, bench_bulk_build);

fn main() {
    benches();
    emit_json_point();
}
