//! `retrain_slide`: `RetrainEngine` over a 12-run window fed a fixed
//! sequence of simulated runs.
//!
//! Each shift is `push_run` + `retrain`; each refreshed model is scored
//! on the run that follows. Runs keep spans from a fixed multiset, the
//! simulator's own life lengths, in a fixed order (see [`spans`]), so
//! shifts retire and append different row counts while the window's size
//! follows the same course for every seed; the seed chooses the lives.
//! `linalg` is used here through rank-k updates and `features` through
//! sliding aggregation; `offline_build` uses both only through cold
//! factorizations.

use crate::corpus::{self, REFERENCE_SEED};
use crate::procfs;
use crate::report::{mean, median, v, Outcome};
use crate::trace::{attribution, Tracer};
use crate::Args;
use f2pm::{FactorPath, RetrainConfig, RetrainEngine, RetrainOutcome};
use f2pm_features::{aggregate_run, AggregationConfig};
use f2pm_linalg::Matrix;
use f2pm_ml::Model;
use f2pm_monitor::RunData;
use std::time::Instant;

const WINDOW_RUNS: usize = 12;
/// Shifts in the fixed sequence one pass replays.
const SHIFTS: usize = 12;
/// Shifts of the reference slide quality is scored on.
const REFERENCE_SHIFTS: usize = 6;
const SETUPS: usize = 3;
/// Simulated lives whose lengths give the span multiset.
const SPAN_SAMPLE_LIVES: usize = 4 * WINDOW_RUNS;
/// In the traced run, every third shift is also retrained cold.
const COLD_EVERY: usize = 3;

/// The span multiset: the WINDOW_RUNS midpoint quantiles of the
/// lengths of simulated lives, boot to failure. The sample is drawn from
/// [`REFERENCE_SEED`], so every workload seed gets the same multiset.
fn span_set() -> Result<Vec<f64>, String> {
    let mut lengths: Vec<f64> = corpus::lives(REFERENCE_SEED, SPAN_SAMPLE_LIVES)
        .iter()
        .filter_map(|r| r.fail_time)
        .collect();
    if lengths.len() < WINDOW_RUNS {
        return Err(format!("only {} simulated lives failed", lengths.len()));
    }
    lengths.sort_by(f64::total_cmp);
    let n = lengths.len();
    Ok((0..WINDOW_RUNS)
        .map(|i| lengths[(2 * i + 1) * n / (2 * WINDOW_RUNS)])
        .collect())
}

/// Kept spans: the first window and the shift sequence each take the
/// span multiset `set`, in two orders of their own. Shifts retire and
/// append different row counts, and the window ends a pass as large as
/// it began. The orders are drawn from [`REFERENCE_SEED`], not the
/// workload seed: a pass's cost follows the window's course of sizes,
/// which by order alone moved the mean shift by 50 % from seed to seed.
/// The last run, only scored, takes the median span.
fn spans(set: &[f64], shifts: usize) -> Vec<f64> {
    let mut rng = corpus::choice_rng(REFERENCE_SEED);
    let mut all = set.to_vec();
    corpus::shuffle(&mut rng, &mut all);
    let mut sequence = set.to_vec();
    corpus::shuffle(&mut rng, &mut sequence);
    all.extend(sequence.into_iter().cycle().take(shifts));
    all.push(set[set.len() / 2]);
    all
}

/// Inputs of one slide: the runs, and a rows matrix + labels per run for
/// scoring.
struct Slide {
    runs: Vec<RunData>,
    scored: Vec<(Matrix, Vec<f64>)>,
}

fn make_slide(seed: u64, set: &[f64], shifts: usize) -> Result<Slide, String> {
    let runs: Vec<RunData> = corpus::trimmed_runs(seed, &spans(set, shifts))?
        .iter()
        .map(corpus::run_data)
        .collect();
    let agg = AggregationConfig::default();
    let scored = runs
        .iter()
        .map(|r| {
            let points: Vec<_> = aggregate_run(r, &agg)
                .into_iter()
                .filter(|p| p.rttf.is_some())
                .collect();
            let width = points.first().map_or(0, |p| p.input_width(&agg));
            let mut x = Matrix::zeros(points.len(), width);
            for (i, p) in points.iter().enumerate() {
                p.write_into(&agg, x.row_mut(i));
            }
            (x, points.iter().map(|p| p.rttf.expect("labeled")).collect())
        })
        .collect();
    Ok(Slide { runs, scored })
}

/// An engine holding the slide's first window, trained once (cold).
fn base_engine(slide: &Slide) -> Result<RetrainEngine, String> {
    let mut engine = RetrainEngine::new(RetrainConfig::new(WINDOW_RUNS));
    for run in &slide.runs[..WINDOW_RUNS] {
        engine.push_run(run);
    }
    engine.retrain().map_err(|e| e.to_string())?;
    Ok(engine)
}

struct Shift {
    ms: f64,
    cpu_ns: u64,
    /// VmHWM over the shift, MiB.
    peak_mib: f64,
    outcome: RetrainOutcome,
    window_rows: usize,
}

fn shift(
    engine: &mut RetrainEngine,
    run: &RunData,
    tr: Option<&mut Tracer>,
) -> Result<Shift, String> {
    let pid = std::process::id();
    procfs::reset_peak_rss(pid).map_err(|e| format!("resetting VmHWM: {e}"))?;
    let cpu0 = procfs::process_cpu_ns(pid).unwrap_or(0);
    let t = Instant::now();
    let outcome = match tr {
        Some(tr) => tr.span("shift", |tr| {
            tr.span("push_run", |_| engine.push_run(run));
            tr.span("retrain", |_| engine.retrain())
        }),
        None => {
            engine.push_run(run);
            engine.retrain()
        }
    }
    .map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_ns = procfs::process_cpu_ns(pid).unwrap_or(0) - cpu0;
    Ok(Shift {
        ms,
        cpu_ns,
        peak_mib: procfs::peak_rss_mib(pid).ok_or("no VmHWM")?,
        outcome,
        window_rows: engine.window_rows(),
    })
}

fn score(model: &dyn Model, scored: &(Matrix, Vec<f64>)) -> Result<Vec<f64>, String> {
    model.predict_batch(&scored.0).map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut made = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let set = span_set()?;
        let slide = make_slide(args.seed, &set, SHIFTS)?;
        let base = base_engine(&slide)?;
        setups.push(t.elapsed().as_secs_f64());
        made = Some((set, slide, base));
    }
    let (set, slide, base) = made.expect("SETUPS >= 1");
    out.e2e("setup_s", v(median(&setups), setups.len()));
    out.notes.push(format!(
        "inputs: spans {:?} s, window {WINDOW_RUNS} runs ({} rows), {SHIFTS} shifts of {:?} windows",
        set.iter().map(|s| s.round()).collect::<Vec<_>>(),
        base.window_rows(),
        slide.scored[WINDOW_RUNS..WINDOW_RUNS + SHIFTS]
            .iter()
            .map(|s| s.1.len())
            .collect::<Vec<_>>()
    ));

    // Quality on the reference slide; it also warms the process up.
    let reference = make_slide(REFERENCE_SEED, &set, REFERENCE_SHIFTS)?;
    let mut engine = base_engine(&reference)?;
    let (mut pred, mut actual) = (Vec::new(), Vec::new());
    for i in WINDOW_RUNS..WINDOW_RUNS + REFERENCE_SHIFTS {
        let s = shift(&mut engine, &reference.runs[i], None)?;
        pred.extend(score(&s.outcome.model, &reference.scored[i + 1])?);
        actual.extend_from_slice(&reference.scored[i + 1].1);
    }
    let quality = corpus::rel_smae(&pred, &actual);
    out.e2e("quality_rel_smae", v(quality, pred.len()));

    // Timed passes over the whole fixed sequence; only whole passes count,
    // so the mean always covers the same shifts.
    let plan: &[(bool, f64)] = if args.trace {
        &[(false, 0.5), (true, 0.5)]
    } else {
        &[(false, 1.0)]
    };
    let mut tracer = Tracer::new();
    let mut phases: Vec<Vec<Vec<Shift>>> = Vec::new();
    let mut cold_delta: f64 = 0.0;
    for &(traced, frac) in plan {
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds * frac {
            let mut engine = base.clone();
            let mut pass = Vec::with_capacity(SHIFTS);
            for i in WINDOW_RUNS..WINDOW_RUNS + SHIFTS {
                out.attempted += 1;
                let s = match shift(&mut engine, &slide.runs[i], traced.then_some(&mut tracer)) {
                    Ok(s) => s,
                    Err(e) => {
                        out.failed += 1;
                        out.notes.push(format!("shift {i} failed: {e}"));
                        break;
                    }
                };
                let next = &slide.scored[i + 1];
                if traced {
                    let warm = tracer.span("score", |_| score(&s.outcome.model, next))?;
                    if i % COLD_EVERY == 0 {
                        let cold = tracer
                            .span("retrain_cold", |_| engine.retrain_cold())
                            .map_err(|e| e.to_string())?;
                        let cold_pred = score(&cold.model, next)?;
                        let d = warm
                            .iter()
                            .zip(&cold_pred)
                            .map(|(a, b)| (a - b).abs())
                            .fold(0.0, f64::max);
                        cold_delta = cold_delta.max(d);
                    }
                } else {
                    score(&s.outcome.model, next)?;
                }
                pass.push(s);
            }
            passes.push(pass);
        }
        phases.push(passes);
    }

    let untraced: Vec<&Shift> = phases[0].iter().flatten().collect();
    if untraced.is_empty() {
        return Err("no shift succeeded".into());
    }
    let ms: Vec<f64> = untraced.iter().map(|s| s.ms).collect();
    out.e2e("op_ms", v(mean(&ms), ms.len()));
    let cpu: Vec<f64> = untraced.iter().map(|s| s.cpu_ns as f64 / 1e3).collect();
    out.e2e("cpu_us_per_op", v(mean(&cpu), cpu.len()));
    let peaks: Vec<f64> = untraced.iter().map(|s| s.peak_mib).collect();
    out.e2e("peak_rss_mib", v(median(&peaks), peaks.len()));
    out.notes.push(format!(
        "{} whole passes of {SHIFTS} shifts timed; reference slide rel S-MAE {quality:.6} over {} rows",
        phases[0].len(),
        pred.len()
    ));

    if args.trace {
        out.check(
            format!(
                "sampled warm shifts agree with retrain_cold within 1e-6 (max {cold_delta:.3e})"
            ),
            cold_delta <= 1e-6,
        );
        let traced: Vec<&Shift> = phases[1].iter().flatten().collect();
        let traced_ms: Vec<f64> = traced.iter().map(|s| s.ms).collect();
        let overhead = 100.0 * (mean(&traced_ms) - mean(&ms)) / mean(&ms);
        out.layer("trace.overhead_pct", v(overhead, traced_ms.len()));
        out.notes.push(format!(
            "tracing overhead: traced {:.3} ms vs untraced {:.3} ms per shift ({overhead:+.2}%)",
            mean(&traced_ms),
            mean(&ms)
        ));
        let per_shift = |name: &str| {
            let d = tracer.durations_ms(name);
            v(mean(&d), d.len())
        };
        out.layer("features.push_run_ms", per_shift("push_run"));
        out.layer("core.retrain_ms", per_shift("retrain"));
        out.layer("core.retrain_cold_ms", per_shift("retrain_cold"));
        out.layer("ml.score_ms", per_shift("score"));
        let (selfs, _) = tracer.self_times_under("shift");
        let own = selfs.get("shift").copied().unwrap_or(0.0) / traced.len() as f64;
        out.layer("shift.unattributed_ms", v(own, traced.len()));
        out.notes
            .extend(attribution(&tracer, "shift", traced.len(), |s| match s {
                "push_run" => "features",
                "retrain" => "core",
                _ => "unattributed",
            }));
        tracer
            .write_jsonl(&args.spans_path())
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    // Path tallies and row counts of one pass: the sequence is fixed, so
    // every pass takes the same paths.
    let pass = &phases[0][0];
    let tally = |p: FactorPath| {
        v(
            pass.iter().filter(|s| s.outcome.lssvm_path == p).count() as f64,
            pass.len(),
        )
    };
    out.layer("core.warm_shifts", tally(FactorPath::Warm));
    out.layer("core.fallback_shifts", tally(FactorPath::Fallback));
    out.layer("core.cold_shifts", tally(FactorPath::Cold));
    let rows = |f: fn(&Shift) -> usize| pass.iter().map(|s| f(s) as f64).collect::<Vec<f64>>();
    out.layer(
        "core.rows_retired_mean",
        v(mean(&rows(|s| s.outcome.retired_rows)), pass.len()),
    );
    out.layer(
        "core.rows_appended_mean",
        v(mean(&rows(|s| s.outcome.appended_rows)), pass.len()),
    );
    out.layer(
        "core.window_rows_max",
        v(
            rows(|s| s.window_rows).into_iter().fold(0.0, f64::max),
            pass.len(),
        ),
    );
    let pass_means: Vec<String> = phases[0]
        .iter()
        .map(|p| format!("{:.1}", mean(&p.iter().map(|s| s.ms).collect::<Vec<f64>>())))
        .collect();
    out.notes.push(format!(
        "mean shift per pass (ms): {}",
        pass_means.join(" ")
    ));
    Ok(out)
}
