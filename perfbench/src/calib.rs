//! The machine-speed reference: a fixed kernel timed right after every
//! timed operation, so that each time can be reported at one reference
//! speed of the machine.
//!
//! On a small shared host the machine's speed swings by up to 2x within a
//! second or two and drifts by 10-40% over minutes as other tenants' load
//! comes and goes (thread CPU time equals wall time: it is not
//! descheduling). An operation and the kernel run right after it see the
//! same machine: on a 2-vCPU x86-64 VM, over five 30 s runs of one seed of
//! `serve_mix` whose kernel times differed by up to 20%, the median miss
//! time stayed within 6.48-6.56 ms once each sample was scaled by its
//! kernel time. The kernel is the benchmark's own code and does not change
//! with the program, so a change to the program moves the scaled times as
//! it moves the raw ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Nodes of the kernel's graph: about 0.15 ms a call.
const NODES: usize = 150;

/// The kernel's time, in ms, at the reference speed: about its time on a
/// quiet 2-vCPU x86-64 VM. Scaled times read as the ms they would take
/// when the kernel takes this long.
pub const REFERENCE_MS: f64 = 0.15;

/// `t`, a time just measured (in any unit), at the reference speed:
/// scaled by `REFERENCE_MS` over the kernel's time now.
pub fn at_reference(t: f64) -> f64 {
    t * REFERENCE_MS / sample()
}

/// Times one call of the kernel, in ms. An untimed call first brings the
/// kernel's code and data back into the caches, so the time does not
/// depend on how much of them the operation before it evicted.
fn sample() -> f64 {
    black_box(colour(black_box(NODES)));
    let t0 = Instant::now();
    black_box(colour(black_box(NODES)));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Greedy colouring of a seeded random graph of `n` nodes: build the
/// adjacency lists, remove nodes by smallest remaining degree, and colour
/// them in reverse removal order with the lowest free colour. The same
/// kind of work as the allocator's (lists, scans, sorting, a hash map) on
/// a working set of a few tens of KiB.
fn colour(n: usize) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    };
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for _ in 0..n * 8 {
        let (a, b) = (next(), next());
        if a != b {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut by_degree: HashMap<usize, u64> = HashMap::new();
    for _ in 0..n {
        let v = (0..n)
            .filter(|&i| !removed[i])
            .min_by_key(|&i| degree[i])
            .expect("a node is left");
        removed[v] = true;
        order.push(v);
        *by_degree.entry(degree[v]).or_default() += 1;
        for &m in &adj[v] {
            if !removed[m as usize] {
                degree[m as usize] -= 1;
            }
        }
    }
    let mut colour = vec![u32::MAX; n];
    let mut h = by_degree.len() as u64;
    for &v in order.iter().rev() {
        let mut used: Vec<u32> = adj[v]
            .iter()
            .map(|&m| colour[m as usize])
            .filter(|&c| c != u32::MAX)
            .collect();
        used.sort_unstable();
        let mut c = 0;
        for u in used {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        colour[v] = c;
        h = h.wrapping_mul(31).wrapping_add(u64::from(c));
    }
    h
}
