//! A tiny order-preserving work-stealing pool for fanning independent
//! chunks over OS threads.
//!
//! Workers pull chunk indices from a shared atomic counter, so scheduling
//! adapts to uneven chunk runtimes; results are re-sorted by index before
//! returning, so the output is identical for any `jobs` value.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work(0..count)` across up to `jobs` threads and returns the
/// results in index order.
///
/// `jobs <= 1` (or a single item) runs serially on the caller's thread —
/// the parallel path produces the exact same vector, which is what the
/// campaign's `--jobs` determinism guarantee rests on.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn fan_out<T, F>(count: usize, jobs: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.min(count))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        out.push((i, work(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = fan_out(17, 1, |i| i * i);
        let parallel = fan_out(17, 4, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(fan_out(2, 8, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(fan_out(0, 4, |i| i), Vec::<usize>::new());
    }
}
