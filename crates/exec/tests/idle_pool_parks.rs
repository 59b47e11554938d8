//! An idle pool must cost nothing: workers poll the queue count for a
//! bounded window after their last task and then park on the condvar. Its
//! own test binary (one process, one test), because the measurement is the
//! process's CPU time and any other test running beside it would count.

/// Nanoseconds this process's threads have spent on a CPU, summed over
/// `/proc/self/task/*/schedstat` (first field).
#[cfg(target_os = "linux")]
fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .map(|task| {
            let stat = std::fs::read_to_string(task.unwrap().path().join("schedstat"))
                .expect("a live thread has a schedstat");
            let on_cpu = stat
                .split_whitespace()
                .next()
                .expect("schedstat has fields");
            on_cpu.parse::<u64>().expect("on-CPU time is an integer")
        })
        .sum()
}

#[cfg(target_os = "linux")]
#[test]
fn idle_pool_parks() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    bat_exec::set_threads(4);
    // Spawn the workers and keep them busy for a moment.
    let hits = AtomicU64::new(0);
    for _ in 0..200 {
        bat_exec::run_blocks(16, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(hits.load(Ordering::Relaxed), 200 * 16);

    // Let the poll window run out, then watch an idle window: the caller
    // is blocked in the kernel and three workers exist, so spinning
    // workers would read as ~300 % of the window.
    std::thread::sleep(Duration::from_millis(50));
    let (cpu0, t0) = (process_cpu_ns(), Instant::now());
    std::thread::sleep(Duration::from_millis(300));
    let busy = (process_cpu_ns() - cpu0) as f64 / t0.elapsed().as_nanos() as f64;
    assert!(
        busy < 0.10,
        "an idle pool used {:.0} % of a CPU",
        busy * 100.0
    );

    // Parked workers still wake for the next call.
    bat_exec::run_blocks(16, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 201 * 16);
}
