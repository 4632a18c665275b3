//! STAMP `labyrinth`: maze routing (Lee's algorithm).
//!
//! Each router repeatedly (1) snapshots the shared grid
//! *non-transactionally*, (2) runs a breadth-first search on the private
//! snapshot — by far the dominant cost — and (3) commits the found path
//! with one short all-or-nothing claim transaction, retrying from (1) if
//! another router claimed an overlapping cell in the meantime. Because
//! step (2) dwarfs the transactions, "using any STM algorithm will result
//! in almost the same performance" (paper §III on Fig. 3 and §V on Fig.
//! 8c) — the harness checks exactly that flatness.

use crate::{RunReport, SplitMix};
use rinval::{PhaseStats, Stm};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use txds::TBitmap;

/// Labyrinth workload parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Grid width.
    pub width: u64,
    /// Grid height.
    pub height: u64,
    /// Number of (source, destination) route requests.
    pub routes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            width: 64,
            height: 64,
            routes: 24,
            seed: 0x1AB,
        }
    }
}

/// Generates endpoint pairs; all endpoints are distinct cells.
pub fn generate_requests(cfg: &Config) -> Vec<(u64, u64)> {
    let mut rng = SplitMix::new(cfg.seed);
    let cells = cfg.width * cfg.height;
    let mut used = std::collections::HashSet::new();
    let mut reqs = Vec::with_capacity(cfg.routes);
    while reqs.len() < cfg.routes {
        let a = rng.below(cells);
        let b = rng.below(cells);
        if a != b && !used.contains(&a) && !used.contains(&b) {
            used.insert(a);
            used.insert(b);
            reqs.push((a, b));
        }
    }
    reqs
}

/// BFS on a private occupancy snapshot; returns the cell path from `src`
/// to `dst` (inclusive) or `None` if unreachable.
fn bfs(width: u64, height: u64, occupied: &[bool], src: u64, dst: u64) -> Option<Vec<u64>> {
    let cells = (width * height) as usize;
    let mut parent = vec![usize::MAX; cells];
    let mut queue = std::collections::VecDeque::new();
    parent[src as usize] = src as usize;
    queue.push_back(src as usize);
    while let Some(c) = queue.pop_front() {
        if c as u64 == dst {
            let mut path = vec![dst];
            let mut cur = c;
            while parent[cur] != cur {
                cur = parent[cur];
                path.push(cur as u64);
            }
            path.reverse();
            return Some(path);
        }
        let x = c as u64 % width;
        let y = c as u64 / width;
        let mut push = |n: u64| {
            let ni = n as usize;
            if parent[ni] == usize::MAX && !occupied[ni] {
                parent[ni] = c;
                queue.push_back(ni);
            }
        };
        if x > 0 {
            push(c as u64 - 1);
        }
        if x + 1 < width {
            push(c as u64 + 1);
        }
        if y > 0 {
            push(c as u64 - width);
        }
        if y + 1 < height {
            push(c as u64 + width);
        }
    }
    None
}

/// The routing engine: returns the merged report and every routed path.
fn route_all(
    stm: &Stm,
    grid: TBitmap,
    requests: &[(u64, u64)],
    threads: usize,
    cfg: &Config,
) -> (RunReport, Vec<Vec<u64>>) {
    let next = AtomicUsize::new(0);
    let routed: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    let next = &next;
    let routed = &routed;
    let mut merged = PhaseStats::default();
    let started = Instant::now();
    let stats: Vec<PhaseStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut th = stm.register_thread();
                    let cells = (cfg.width * cfg.height) as usize;
                    let mut occupied = vec![false; cells];
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        let (src, dst) = requests[i];
                        // Bounded retries: a route may become impossible as
                        // other routers claim cells.
                        for _attempt in 0..20 {
                            // (1) Non-transactional grid snapshot. Raciness
                            // is fine: the claim transaction revalidates.
                            for (c, o) in occupied.iter_mut().enumerate() {
                                *o = stm.peek(grid.word_handle(c as u64)) & (1 << (c as u64 % 64))
                                    != 0;
                            }
                            // (2) Private BFS — the dominant, non-tx cost.
                            let Some(path) = bfs(cfg.width, cfg.height, &occupied, src, dst) else {
                                break; // permanently blocked
                            };
                            // (3) Short all-or-nothing claim transaction.
                            if th.run(|tx| grid.try_claim(tx, &path)) {
                                routed.lock().unwrap().push(path);
                                break;
                            }
                        }
                    }
                    th.take_stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    for st in &stats {
        merged.merge(st);
    }
    let paths = std::mem::take(&mut *routed.lock().unwrap());
    let report = RunReport {
        wall,
        stats: merged,
        threads,
        checksum: paths.len() as u64,
        heap: stm.heap_stats(),
        server: stm.server_stats(),
    };
    (report, paths)
}

/// Runs the router; `checksum` is the number of successfully routed paths.
pub fn run(stm: &Stm, threads: usize, cfg: &Config) -> RunReport {
    let requests = generate_requests(cfg);
    let grid = TBitmap::new(stm, cfg.width * cfg.height);
    route_all(stm, grid, &requests, threads, cfg).0
}

/// Runs and fully verifies path disjointness, adjacency and endpoint
/// matching, plus grid-bit conservation.
pub fn run_verified(stm: &Stm, threads: usize, cfg: &Config) -> Result<RunReport, String> {
    let requests = generate_requests(cfg);
    let grid = TBitmap::new(stm, cfg.width * cfg.height);
    let (report, paths) = route_all(stm, grid, &requests, threads, cfg);
    verify_paths(cfg, &requests, &paths)?;
    let claimed: u64 = paths.iter().map(|p| p.len() as u64).sum();
    if grid.popcount(stm) != claimed {
        return Err("grid bits != sum of path lengths".into());
    }
    Ok(report)
}

/// Structural checks on a set of routed paths.
fn verify_paths(cfg: &Config, requests: &[(u64, u64)], paths: &[Vec<u64>]) -> Result<(), String> {
    let endpoints: std::collections::HashSet<(u64, u64)> = requests.iter().copied().collect();
    let mut seen_cells = std::collections::HashSet::new();
    for p in paths {
        if p.len() < 2 {
            return Err("degenerate path".into());
        }
        if !endpoints.contains(&(p[0], p[p.len() - 1])) {
            return Err("path endpoints do not match any request".into());
        }
        for w in p.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ax, ay) = (a % cfg.width, a / cfg.width);
            let (bx, by) = (b % cfg.width, b / cfg.width);
            if ax.abs_diff(bx) + ay.abs_diff(by) != 1 {
                return Err(format!("non-adjacent step {a} -> {b}"));
            }
        }
        for &c in p {
            if !seen_cells.insert(c) {
                return Err(format!("cell {c} used by two paths"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rinval::AlgorithmKind;

    fn small() -> Config {
        Config {
            width: 24,
            height: 24,
            routes: 8,
            seed: 5,
        }
    }

    #[test]
    fn requests_are_distinct_endpoints() {
        let cfg = small();
        let reqs = generate_requests(&cfg);
        assert_eq!(reqs.len(), cfg.routes);
        let mut all: Vec<u64> = reqs.iter().flat_map(|&(a, b)| [a, b]).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "endpoints must be unique");
    }

    #[test]
    fn bfs_finds_straight_line_on_empty_grid() {
        let occupied = vec![false; 25];
        let path = bfs(5, 5, &occupied, 0, 4).unwrap();
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], 0);
        assert_eq!(path[4], 4);
    }

    #[test]
    fn bfs_respects_walls() {
        // Vertical wall at x=2 on a 5x5 grid, gap at y=4.
        let mut occupied = vec![false; 25];
        for y in 0..4 {
            occupied[(y * 5 + 2) as usize] = true;
        }
        let path = bfs(5, 5, &occupied, 0, 4).unwrap();
        assert!(path.contains(&22), "must detour through the gap at (2,4)");
        assert!(path.len() > 5);
    }

    #[test]
    fn bfs_reports_unreachable() {
        let mut occupied = vec![false; 25];
        for y in 0..5 {
            occupied[(y * 5 + 2) as usize] = true;
        }
        assert!(bfs(5, 5, &occupied, 0, 4).is_none());
    }

    #[test]
    fn routed_paths_verify_across_algorithms() {
        let cfg = small();
        for algo in [
            AlgorithmKind::NOrec,
            AlgorithmKind::InvalStm,
            AlgorithmKind::RInvalV2 { invalidators: 2 },
        ] {
            let stm = Stm::builder(algo).heap_words(1 << 14).build();
            let report = run_verified(&stm, 3, &cfg).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            assert!(report.checksum > 0, "{algo:?} routed nothing");
        }
    }
}
