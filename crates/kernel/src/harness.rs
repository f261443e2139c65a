//! Small measurement utilities shared by experiments and examples.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `threads` copies of `f(thread_index)` concurrently; returns the
/// wall-clock time of the slowest.
pub fn run_concurrent<F>(threads: usize, f: F) -> Duration
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let f = f.clone();
            std::thread::spawn(move || f(i))
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    start.elapsed()
}

/// Throughput helper: ops per second given a count and a duration.
pub fn ops_per_sec(ops: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    ops as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_runner_runs_all() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        run_concurrent(8, |_| {
            N.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(N.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn throughput_math() {
        assert!((ops_per_sec(1000, Duration::from_secs(2)) - 500.0).abs() < f64::EPSILON);
    }
}
