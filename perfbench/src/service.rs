//! A closed-loop client of `halox_serve::JobService`: one generator thread
//! keeps a fixed number of jobs outstanding and submits the next job only
//! when one completes. Each submitted job gets a waiter thread blocked in
//! `JobHandle::wait`, which reports the completion instant over a channel,
//! so the generator sleeps instead of polling. Each result is checked when
//! it arrives and then dropped, so memory does not grow with throughput.

use crate::util::{median, ms, percentile, steal_ticks, Metrics, Spans};
use halox_serve::{JobResult, JobService, JobSpec, JobState, JobStatus};
use halox_shmem::PoolStats;
use std::ops::Range;
use std::sync::mpsc;
use std::time::Instant;

/// A job the generator wants submitted; `tag` is handed to the output
/// check to pick the reference the job must match.
pub struct Request {
    pub tag: usize,
    pub spec: JobSpec,
}

/// One submission's fate.
pub struct Finished {
    pub submit_us: f64,
    /// When the job reached its terminal state (or was refused), ms after
    /// the loop started.
    pub done_ms: f64,
    /// [`steal_ticks`] when the completion was seen.
    pub steal_at: u64,
    pub turnaround_ms: f64,
    /// Terminal status; `Err` carries the admission error text.
    pub outcome: Result<JobStatus, String>,
    /// The job reached `Done` and its output passed the caller's check.
    pub verified: bool,
}

impl Finished {
    pub fn queue_wait_ms(&self) -> Option<f64> {
        self.outcome.as_ref().ok().map(|s| ms(s.queue_wait))
    }
}

/// What a waiter thread reports when its job reaches a terminal state.
struct Completion {
    index: u64,
    tag: usize,
    submitted: Instant,
    submit_us: f64,
    done: Instant,
    status: JobStatus,
    result: Option<JobResult>,
}

/// What one or more closed loops did.
#[derive(Default)]
pub struct LoopRun {
    /// In completion order (per loop, when loops were absorbed).
    pub finished: Vec<Finished>,
    /// [`steal_ticks`] when the loop started.
    pub steal_at_start: u64,
    /// Wall time from the first submission to the last completion.
    pub wall_s: f64,
    /// Intervals between consecutive job completions, ms: the service's
    /// output cadence, as segment intervals are the engine's.
    pub completion_gaps_ms: Vec<f64>,
}

impl LoopRun {
    /// Fold another loop's results into this one.
    pub fn absorb(&mut self, other: LoopRun) {
        if self.finished.is_empty() {
            self.steal_at_start = other.steal_at_start;
        }
        self.finished.extend(other.finished);
        self.wall_s += other.wall_s;
        self.completion_gaps_ms.extend(other.completion_gaps_ms);
    }

    /// Steps of the jobs that reached `Done`.
    pub fn steps_done(&self) -> usize {
        self.finished
            .iter()
            .filter_map(|f| match &f.outcome {
                Ok(s) if s.state == JobState::Done => Some(s.steps_done),
                _ => None,
            })
            .sum()
    }

    pub fn steps_per_s(&self) -> f64 {
        self.steps_done() as f64 / self.wall_s
    }

    pub fn turnaround_p(&self, p: f64) -> f64 {
        let t: Vec<f64> = self.finished.iter().map(|f| f.turnaround_ms).collect();
        percentile(&t, p)
    }

    /// Steps of `Done` jobs per second over the completions in `r` (in
    /// completion order), timed from the completion before the range (or
    /// the loop's start) to the range's last one.
    pub fn steps_per_s_over(&self, r: Range<usize>) -> f64 {
        let from = r
            .start
            .checked_sub(1)
            .map_or(0.0, |i| self.finished[i].done_ms);
        let to = self.finished[r.end - 1].done_ms;
        let steps: usize = self.finished[r]
            .iter()
            .filter_map(|f| match &f.outcome {
                Ok(s) if s.state == JobState::Done => Some(s.steps_done),
                _ => None,
            })
            .sum();
        steps as f64 * 1e3 / (to - from)
    }

    /// Completions per second over the completions in `r`, timed as in
    /// [`LoopRun::steps_per_s_over`].
    pub fn jobs_per_s_over(&self, r: Range<usize>) -> f64 {
        let from = r
            .start
            .checked_sub(1)
            .map_or(0.0, |i| self.finished[i].done_ms);
        r.len() as f64 * 1e3 / (self.finished[r.end - 1].done_ms - from)
    }

    /// The `serve.*` per-layer metrics of this loop, and the pool's reuse.
    pub fn put_serve_metrics(&self, pool: &PoolStats, m: &mut Metrics) {
        let waits: Vec<f64> = self
            .finished
            .iter()
            .filter_map(|f| f.queue_wait_ms())
            .collect();
        let service: Vec<f64> = self
            .finished
            .iter()
            .filter_map(|f| f.queue_wait_ms().map(|q| f.turnaround_ms - q))
            .collect();
        let submits: Vec<f64> = self.finished.iter().map(|f| f.submit_us).collect();
        let reuse = pool.reused as f64 / pool.leases.max(1) as f64;
        m.put("shmem.pool_reuse_ratio", reuse, "ratio");
        m.put("serve.submit_us", median(&submits), "us");
        m.put("serve.queue_wait_ms_p50", percentile(&waits, 50.0), "ms");
        m.put("serve.queue_wait_ms_p90", percentile(&waits, 90.0), "ms");
        m.put("serve.service_ms_p50", percentile(&service, 50.0), "ms");
        m.put("serve.steps_per_s", self.steps_per_s(), "steps/s");
    }
}

/// Keep `outstanding` jobs in flight, asking `next` for each new one until
/// it returns `None`, then drain. `verify(tag, result)` checks each `Done`
/// job's output. Every submit runs in a `serve.submit` span and every job
/// in a `serve.job` span keyed by its submission index.
pub fn closed_loop(
    svc: &JobService,
    outstanding: usize,
    mut next: impl FnMut(usize) -> Option<Request>,
    verify: impl Fn(usize, &JobResult) -> bool,
    spans: &mut Spans,
) -> LoopRun {
    let steal_at_start = steal_ticks();
    let t0 = Instant::now();
    let mut finished = Vec::new();
    let mut done_at = Vec::new();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Completion>();
        let mut in_flight = 0usize;
        let mut submitted = 0usize;
        let mut exhausted = false;
        loop {
            while !exhausted && in_flight < outstanding {
                let Some(req) = next(submitted) else {
                    exhausted = true;
                    break;
                };
                submitted += 1;
                let t = Instant::now();
                let (res, secs) =
                    spans.time("serve.submit", submitted as u64, || svc.submit(req.spec));
                match res {
                    Ok(handle) => {
                        in_flight += 1;
                        let tx = tx.clone();
                        let (index, tag) = (submitted as u64, req.tag);
                        scope.spawn(move || {
                            let (status, result) = handle.wait();
                            // The generator outlives every waiter, so the
                            // receiver is still there.
                            let _ = tx.send(Completion {
                                index,
                                tag,
                                submitted: t,
                                submit_us: secs * 1e6,
                                done: Instant::now(),
                                status,
                                result,
                            });
                        });
                    }
                    Err(e) => finished.push(Finished {
                        submit_us: secs * 1e6,
                        done_ms: ms(t0.elapsed()),
                        steal_at: steal_ticks(),
                        turnaround_ms: ms(t.elapsed()),
                        outcome: Err(e.to_string()),
                        verified: false,
                    }),
                }
            }
            if in_flight == 0 {
                break;
            }
            let c = rx
                .recv()
                .expect("every in-flight job has a waiter holding a sender");
            in_flight -= 1;
            let id = spans.enter("serve.job", c.index);
            spans.list[id].start_us = c.submitted.duration_since(spans.origin()).as_micros() as u64;
            spans.exit(id);
            spans.list[id].end_us = c.done.duration_since(spans.origin()).as_micros() as u64;
            let verified = c.status.state == JobState::Done
                && c.result.as_ref().is_some_and(|r| verify(c.tag, r));
            done_at.push(c.done);
            finished.push(Finished {
                submit_us: c.submit_us,
                done_ms: ms(c.done.duration_since(t0)),
                steal_at: steal_ticks(),
                turnaround_ms: ms(c.done.duration_since(c.submitted)),
                outcome: Ok(c.status),
                verified,
            });
        }
    });
    done_at.sort();
    finished.sort_by(|a, b| a.done_ms.total_cmp(&b.done_ms));
    LoopRun {
        finished,
        steal_at_start,
        wall_s: t0.elapsed().as_secs_f64(),
        completion_gaps_ms: done_at
            .windows(2)
            .map(|w| ms(w[1].duration_since(w[0])))
            .collect(),
    }
}
