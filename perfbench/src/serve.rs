//! The `serve-mix` workload: a closed loop with four jobs outstanding
//! against one `JobService` (one worker, two pooled worlds, 10-step
//! slices). Short thermostatted jobs on four seeded base systems make the
//! job lifecycle — admission pricing, world lease and reset, resume and
//! suspend every slice — a large share of the work.

use crate::config::{describe, engine_config, serial, GRID};
use crate::service::{closed_loop, Finished, LoopRun, Request};
use crate::util::{
    block_median, load_ratio, median, ms, peak_rss_mb, percentile, phase, quiet_rounds,
    same_output, Metrics, Rng, Spans, Tally,
};
use crate::{probes, Report, P50_BLOCK, P90_BLOCK, SETUPS};
use halox_dd::DdGrid;
use halox_engine::{Engine, EngineConfig, PhaseTimer, Thermostat};
use halox_gpusim::MachineModel;
use halox_md::{steepest_descent, EnergyReport, GrappaBuilder, MinimizeOptions, System};
use halox_serve::{JobService, JobSpec, JobState, Priority, ServeConfig};
use halox_trace::{Payload, Recorder};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

const BASES: usize = 4;
const ATOMS: usize = 1_500;
const NSTLIST: usize = 5;
const OUTSTANDING: usize = 4;
const STEP_CHOICES: [usize; 3] = [10, 20, 30];
const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];
const TEMPERATURE: f32 = 300.0;
const TRACE_CAPACITY: usize = 1 << 19;

fn job_config(trace: Option<Arc<Recorder>>) -> EngineConfig {
    EngineConfig {
        trace,
        ..engine_config(
            NSTLIST,
            Some(Thermostat {
                t_ref: TEMPERATURE as f64,
                tau_ps: 0.5,
            }),
        )
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        pool_worlds: 2,
        workers: 1,
        slice_steps: 10,
        max_queue: 64,
        max_predicted_ms: None,
        max_reschedules: 8,
        machine: MachineModel::dgx_h100(),
    }
}

fn spec(
    name: String,
    system: &System,
    steps: usize,
    priority: Priority,
    cfg: EngineConfig,
) -> JobSpec {
    JobSpec {
        name,
        system: system.clone(),
        grid: GRID,
        config: cfg,
        steps,
        priority,
    }
}

/// Count each finished job: `Done` with output equal to its reference, or
/// a failure (admission error, `Failed`, mismatch, reschedule or in-slice
/// recovery).
pub fn check_jobs(finished: &[Finished], tally: &mut Tally) {
    for f in finished {
        match &f.outcome {
            Err(e) => tally.fail(true, format!("admission refused: {e}")),
            Ok(status) if !f.verified => tally.fail(
                true,
                format!(
                    "job {} ended {:?} without its reference output ({})",
                    status.name,
                    status.state,
                    status.error.as_deref().unwrap_or("output differs")
                ),
            ),
            Ok(status) if status.reschedules > 0 || status.recoveries > 0 => tally.fail(
                false,
                format!(
                    "job {}: {} reschedules, {} recoveries (fallback path measured)",
                    status.name, status.reschedules, status.recoveries
                ),
            ),
            Ok(_) => tally.ok(),
        }
    }
}

/// The job stream: step counts and priorities cycle through all nine
/// combinations in a fixed Latin-square order (consecutive jobs differ in
/// both), so every run serves the same mix; the seed draws the base each
/// job runs on.
struct Generator {
    rng: Rng,
    issued: usize,
}

impl Generator {
    fn next(&mut self) -> (usize, usize, Priority) {
        let k = self.issued % 9;
        self.issued += 1;
        (
            self.rng.below(BASES),
            STEP_CHOICES[(k + k / 3) % 3],
            PRIORITIES[k % 3],
        )
    }
}

/// Tag of a (base, steps) pairing: the key of its reference output.
fn tag(base: usize, steps: usize) -> usize {
    base * 100 + steps
}

/// Run the closed loop for `seconds` of submissions, then drain.
fn timed_loop(
    svc: &JobService,
    bases: &[System],
    refs: &Refs,
    gen: &mut Generator,
    seconds: f64,
    trace: Option<Arc<Recorder>>,
    spans: &mut Spans,
) -> LoopRun {
    let t0 = Instant::now();
    closed_loop(
        svc,
        OUTSTANDING,
        |i| {
            if t0.elapsed().as_secs_f64() >= seconds {
                return None;
            }
            let (base, steps, priority) = gen.next();
            Some(Request {
                tag: tag(base, steps),
                spec: spec(
                    format!("job-{i}"),
                    &bases[base],
                    steps,
                    priority,
                    job_config(trace.clone()),
                ),
            })
        },
        |tag, res| {
            refs.outputs
                .get(&tag)
                .is_some_and(|(sys, en)| same_output(&res.system, &res.energies, sys, en))
        },
        spans,
    )
}

/// Solo serial runs of every (base, steps) pairing the generator can draw:
/// the reference outputs, and the phase figures the service hides.
#[derive(Default)]
struct Refs {
    outputs: BTreeMap<usize, (System, Vec<EnergyReport>)>,
    phases: PhaseTimer,
    steps: usize,
    wall_s: f64,
    realloc: usize,
    loads: Vec<u64>,
}

fn references(bases: &[System], tally: &mut Tally) -> Refs {
    let mut refs = Refs {
        loads: vec![0; GRID.iter().product()],
        ..Refs::default()
    };
    for (base, sys) in bases.iter().enumerate() {
        for &steps in &STEP_CHOICES {
            let mut engine = Engine::new(sys.clone(), DdGrid::new(GRID), serial(&job_config(None)));
            match engine.try_run(steps) {
                Ok(stats) => {
                    tally.ok();
                    refs.phases.merge(&stats.phases);
                    refs.steps += steps;
                    refs.wall_s += stats.wall_seconds;
                    refs.realloc += engine.realloc_count;
                    for (a, l) in refs.loads.iter_mut().zip(&stats.rank_loads) {
                        *a += l;
                    }
                    refs.outputs
                        .insert(tag(base, steps), (engine.system, stats.energies));
                }
                Err(e) => tally.fail(
                    true,
                    format!("serial reference base {base} steps {steps}: {e}"),
                ),
            }
        }
    }
    refs
}

pub fn run(seed: u64, seconds: f64, traced: bool, scratch: &std::path::Path) -> Report {
    let mut spans = Spans::new(Instant::now());
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut lines = Vec::new();
    let mut rng = Rng::new(seed);
    let base_seeds: Vec<u64> = (0..BASES).map(|_| rng.next_u64()).collect();

    // Set-up: build and minimise the bases, start the service, and run one
    // single-slice warm-up job through it (lazy world builds happen here).
    let mut setup_s = Vec::new();
    let mut minimize_s = Vec::new();
    let mut kept: Option<(Vec<System>, JobService)> = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        let id = spans.enter("setup", 0);
        let t = Instant::now();
        let mut bases = Vec::new();
        for &s in &base_seeds {
            let mut sys = GrappaBuilder::new(ATOMS)
                .seed(s)
                .temperature(TEMPERATURE)
                .build();
            let (_, secs) = spans.time("md.minimize", 0, || {
                steepest_descent(&mut sys, MinimizeOptions::default())
            });
            minimize_s.push(secs);
            bases.push(sys);
        }
        let (svc, _) = spans.time("serve.start", 0, || JobService::new(serve_config()));
        let warm = closed_loop(
            &svc,
            1,
            |i| {
                (i == 0).then(|| Request {
                    tag: 0,
                    spec: spec(
                        "warm-up".into(),
                        &bases[0],
                        10,
                        Priority::Normal,
                        job_config(None),
                    ),
                })
            },
            |_, _| true,
            &mut spans,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        spans.exit(id);
        match warm.finished.first().map(|f| &f.outcome) {
            Some(Ok(s)) if s.state == JobState::Done => tally.ok(),
            _ => tally.fail(false, "warm-up job did not finish".into()),
        }
        if let Some((prev, _)) = &kept {
            if *prev != bases {
                tally.fail(true, "set-up is not deterministic for one seed".into());
            }
        }
        kept = Some((bases, svc));
    }
    let (bases, mut svc) = kept.expect("at least one set-up");
    lines.push(format!("config: {}", describe(&job_config(None))));
    lines.push(format!(
        "service: {BASES} bases of {} atoms, seed {seed}, workers 1, pool_worlds 2, \
         slice_steps 10, {OUTSTANDING} jobs outstanding, steps {STEP_CHOICES:?}",
        bases[0].n_atoms()
    ));

    // Every reference output, computed before the window; each job is
    // compared with its reference as it completes.
    let (refs, _) = spans.time("reference.serial", 0, || references(&bases, &mut tally));

    // Timed window. The traced run alternates untraced and traced quarters
    // so drift and job mix cancel out of the tracing overhead.
    let mut gen = Generator {
        rng: Rng::new(rng.next_u64()),
        issued: 0,
    };
    let rec = traced.then(|| Arc::new(Recorder::with_capacity(TRACE_CAPACITY)));
    let rec_offset_us = rec.as_ref().map_or(0, |r| {
        (spans.origin().elapsed().as_micros() as u64).saturating_sub(r.now_us())
    });
    let windows = if traced { 4 } else { 1 };
    let mut plain = LoopRun::default();
    let mut with_trace = LoopRun::default();
    let window = spans.enter("timed", 0);
    for k in 0..windows {
        let record = rec.as_ref().filter(|_| k % 2 == 1);
        let run = timed_loop(
            &svc,
            &bases,
            &refs,
            &mut gen,
            seconds / windows as f64,
            record.cloned(),
            &mut spans,
        );
        if record.is_some() {
            with_trace.absorb(run);
        } else {
            plain.absorb(run);
        }
    }
    spans.exit(window);
    svc.shutdown();
    let pool = svc.pool_stats();

    check_jobs(&plain.finished, &mut tally);
    check_jobs(&with_trace.finished, &mut tally);
    lines.push(format!(
        "timed: {} jobs ({} traced), {} completion intervals, {} serial references",
        plain.finished.len() + with_trace.finished.len(),
        with_trace.finished.len(),
        plain.completion_gaps_ms.len() + with_trace.completion_gaps_ms.len(),
        refs.outputs.len()
    ));

    let steps_per_s = plain.steps_per_s();
    if !traced {
        // Rounds are blocks of consecutive completions. The timing figures
        // come from the least-stolen rounds (see `quiet_rounds`): rates are
        // the median over those rounds, percentiles are taken over their
        // completions in blocks (see `block_median`).
        let f = &plain.finished;
        let rounds: Vec<Range<usize>> = (0..(f.len() / P50_BLOCK).max(1))
            .map(|b| {
                let end = if (b + 1) * P50_BLOCK + P50_BLOCK > f.len() {
                    f.len()
                } else {
                    (b + 1) * P50_BLOCK
                };
                b * P50_BLOCK..end
            })
            .collect();
        let steal: Vec<u64> = rounds
            .iter()
            .map(|r| {
                let from = r
                    .start
                    .checked_sub(1)
                    .map_or(plain.steal_at_start, |i| f[i].steal_at);
                f[r.end - 1].steal_at - from
            })
            .collect();
        let held: Vec<usize> = rounds.iter().map(|r| r.len()).collect();
        let kept: Vec<Range<usize>> = quiet_rounds(&steal, &held, P90_BLOCK)
            .into_iter()
            .map(|i| rounds[i].clone())
            .collect();
        let gaps: Vec<f64> = kept
            .iter()
            .flat_map(|r| r.clone().filter(|&i| i > 0))
            .map(|i| f[i].done_ms - f[i - 1].done_ms)
            .collect();
        let turnaround: Vec<f64> = kept
            .iter()
            .flat_map(|r| f[r.clone()].iter().map(|x| x.turnaround_ms))
            .collect();
        let over_kept = |rate: &dyn Fn(Range<usize>) -> f64| {
            median(&kept.iter().map(|r| rate(r.clone())).collect::<Vec<f64>>())
        };
        let p =
            |v: &[f64], q: f64, len: usize| block_median(v.len(), len, |r| percentile(&v[r], q));
        m.put(
            "steps_per_s",
            over_kept(&|r| plain.steps_per_s_over(r)),
            "steps/s",
        );
        m.put("segment_ms_p50", p(&gaps, 50.0, P50_BLOCK), "ms");
        m.put("segment_ms_p90", p(&gaps, 90.0, P90_BLOCK), "ms");
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        m.put(
            "jobs_per_s",
            over_kept(&|r| plain.jobs_per_s_over(r)),
            "jobs/s",
        );
        m.put("turnaround_ms_p50", p(&turnaround, 50.0, P50_BLOCK), "ms");
        m.put("turnaround_ms_p90", p(&turnaround, 90.0, P90_BLOCK), "ms");
        m.put("success_ratio", tally.success_ratio(), "ratio");
        lines.push(format!(
            "samples: {} completion intervals, {} jobs, {} set-ups",
            gaps.len(),
            turnaround.len(),
            setup_s.len()
        ));
        lines.push(format!(
            "host steal: {} ticks over {} rounds of {P50_BLOCK} completions; figures from \
             the {} least stolen",
            steal.iter().sum::<u64>(),
            steal.len(),
            kept.len()
        ));
        lines.push(format!(
            "pooled over all rounds: {:.3} steps/s, {:.3} jobs/s, interval p50 {:.3} \
             p90 {:.3} ms, turnaround p50 {:.3} p90 {:.3} ms",
            steps_per_s,
            f.len() as f64 / plain.wall_s,
            percentile(&plain.completion_gaps_ms, 50.0),
            percentile(&plain.completion_gaps_ms, 90.0),
            plain.turnaround_p(50.0),
            plain.turnaround_p(90.0)
        ));
        return Report {
            metrics: m,
            tally,
            lines,
            spans,
            trace: None,
        };
    }

    // Per-layer. The service hides each job's RunStats, so the engine and
    // md phase figures come from the solo serial references of the same
    // jobs (one host thread runs both ranks: rank time = wall time).
    let rec = rec.expect("traced run has a recorder");
    let ranks: usize = GRID.iter().product();
    let rank_steps = (refs.steps * ranks) as f64;
    let (pairlist_ms, builds) = phase(&refs.phases, "pairlist");
    let (nb_local_ms, _) = phase(&refs.phases, "nb_local");
    let (nb_halo_ms, _) = phase(&refs.phases, "nb_halo");
    let (pack_ms, _) = phase(&refs.phases, "pack");
    let phases_ms: f64 = refs.phases.iter().map(|(_, d, _)| ms(d)).sum();
    m.put("md.pairlist_ms_per_step", pairlist_ms / rank_steps, "ms");
    m.put(
        "md.pairlist_builds_per_segment",
        builds as f64 / (refs.steps / NSTLIST * ranks) as f64,
        "count",
    );
    m.put(
        "md.nb_ms_per_step",
        (nb_local_ms + nb_halo_ms) / rank_steps,
        "ms",
    );
    m.put("md.minimize_s", median(&minimize_s), "s");
    m.put("core.pack_ms_per_step", pack_ms / rank_steps, "ms");

    let trace = rec.drain();
    let traced_steps = with_trace.steps_done();
    let wait_us: u64 = trace
        .events
        .iter()
        .filter(|e| matches!(e.payload, Payload::SignalWaitDone { .. }))
        .map(|e| e.dur_us)
        .sum();
    m.put(
        "core.signal_wait_us_per_step",
        wait_us as f64 / (traced_steps * ranks) as f64,
        "us",
    );
    m.put(
        "engine.untimed_ms_per_step",
        (refs.wall_s * 1e3 - phases_ms) / rank_steps,
        "ms",
    );
    m.put("engine.load_ratio", load_ratio(&refs.loads), "ratio");
    m.put("engine.realloc_count", refs.realloc as f64, "count");
    let all: Vec<&Finished> = plain.finished.iter().chain(&with_trace.finished).collect();
    let (reschedules, recoveries) = all.iter().fold((0, 0), |(a, b), f| match &f.outcome {
        Ok(s) => (a + s.reschedules, b + s.recoveries),
        Err(_) => (a, b),
    });
    m.put("engine.retries", (reschedules + recoveries) as f64, "count");
    m.put("engine.downgrades", 0.0, "count");
    let traced_rate = traced_steps as f64 / with_trace.wall_s;
    m.put(
        "trace.overhead_pct",
        100.0 * (steps_per_s - traced_rate) / steps_per_s,
        "%",
    );
    m.put(
        "trace.events_per_step",
        trace.events.len() as f64 / traced_steps as f64,
        "count",
    );
    m.put("trace.dropped", trace.dropped as f64, "count");
    m.put(
        "baseline.serial_steps_per_s",
        refs.steps as f64 / refs.wall_s,
        "steps/s",
    );

    plain.put_serve_metrics(&pool, &mut m);

    let (end_sys, end_energies) = refs
        .outputs
        .values()
        .next()
        .cloned()
        .unwrap_or_else(|| (bases[0].clone(), Vec::new()));
    probes::run(
        &bases[0],
        &job_config(None),
        (&end_sys, &end_energies),
        20,
        scratch,
        &mut spans,
        &mut m,
        &mut tally,
    );
    Report {
        metrics: m,
        tally,
        lines,
        spans,
        trace: Some((trace, rec_offset_us)),
    }
}
