//! Running simulations: one at a time, or many on the worker pool.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use gpumem_config::GpuConfig;
use gpumem_sim::{GpuSimulator, MemoryMode, SimError, SimReport};
use gpumem_simt::KernelProgram;
use gpumem_workloads::WorkloadKind;

/// Default watchdog budget: generous enough for every suite benchmark at
/// every design point, small enough to catch deadlocks quickly.
pub const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

/// One simulation to run: a configuration, a workload and a memory mode.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// GPU configuration (baseline or a Table I design point).
    pub cfg: GpuConfig,
    /// The workload to execute.
    pub workload: WorkloadKind,
    /// Memory backend.
    pub mode: MemoryMode,
}

/// Runs one benchmark to completion.
///
/// # Errors
///
/// Propagates [`SimError::Watchdog`] if the run does not complete within
/// [`DEFAULT_MAX_CYCLES`].
pub fn run_benchmark(
    cfg: &GpuConfig,
    program: &Arc<dyn KernelProgram>,
    mode: MemoryMode,
) -> Result<SimReport, SimError> {
    GpuSimulator::new(cfg.clone(), Arc::clone(program), mode).run(DEFAULT_MAX_CYCLES)
}

/// The one worker pool: runs `work` over `items` on `min(workers, n)`
/// scoped threads (`workers == 0`: one per host core) and hands each
/// result, tagged with its item's index, to `on_result` on the calling
/// thread.
///
/// Items are claimed in input order from an atomic index, so one worker
/// visits them in order; with more workers results arrive in completion
/// order and the index puts them back. Workers never wait for `on_result`
/// (the sweep's commits sync to disk): finished results queue until it
/// takes them. Once `on_result` returns [`ControlFlow::Break`] it is never
/// called again, at most one more item starts per worker (one already
/// past its stop check), and queued or in-flight results are dropped.
pub fn run_pool<T, R>(
    items: &[T],
    workers: usize,
    work: impl Fn(&T) -> R + Sync,
    mut on_result: impl FnMut(usize, R) -> ControlFlow<()>,
) where
    T: Sync,
    R: Send,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let workers = match workers {
        0 => thread::available_parallelism().map_or(4, |p| p.get()),
        w => w,
    }
    .min(n);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, stop, work) = (&next, &stop, &work);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, work(&items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Breaking out drops `rx`: a worker still simulating finds the
        // channel closed when it tries to hand its result over, and the
        // stop flag keeps the others from claiming more.
        for (i, out) in rx {
            if on_result(i, out).is_break() {
                stop.store(true, Ordering::Release);
                break;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_workloads::{SyntheticKernel, WorkloadParams};
    use std::time::Duration;

    #[test]
    fn serial_run_completes() {
        let mut cfg = GpuConfig::tiny();
        cfg.num_cores = 2;
        let mut p = WorkloadParams::template("t");
        p.ctas = 4;
        p.warps_per_cta = 2;
        p.iters = 4;
        p.working_set_lines = 2_000;
        let program: Arc<dyn KernelProgram> = Arc::new(SyntheticKernel::new(p));
        let report = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).unwrap();
        assert!(report.instructions > 0);
        assert_eq!(report.benchmark, "t");
    }

    #[test]
    fn pool_stops_after_break() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [1, 2, 4] {
            for k in [1, 3, 10] {
                let broke = AtomicBool::new(false);
                let started_after_break = AtomicUsize::new(0);
                let mut delivered = 0;
                run_pool(
                    &items,
                    workers,
                    |&x| {
                        if broke.load(Ordering::SeqCst) {
                            started_after_break.fetch_add(1, Ordering::SeqCst);
                        }
                        thread::sleep(Duration::from_micros(200));
                        x
                    },
                    |_, _| {
                        delivered += 1;
                        if delivered < k {
                            return ControlFlow::Continue(());
                        }
                        broke.store(true, Ordering::SeqCst);
                        ControlFlow::Break(())
                    },
                );
                assert_eq!(delivered, k, "no callback after Break");
                let late = started_after_break.into_inner();
                assert!(
                    late <= workers,
                    "{late} items started after Break with {workers} workers"
                );
            }
        }
    }
}
