//! `offline_build`: the paper's §III pipeline on a seeded 12-run history.
//!
//! Each build goes history → `run_workflow_on_history` (run-aware split)
//! → ranked report → the best persistable pick published through
//! `ModelStore::publish` and reloaded. All of its work is in
//! `features`/`ml`/`linalg`/`registry`; none is in `serve`/`monitor`.

use crate::corpus::{self, REFERENCE_SEED};
use crate::procfs;
use crate::report::{mean, median, v, Outcome};
use crate::trace::{attribution, Tracer};
use crate::Args;
use f2pm::{F2pmConfig, F2pmReport};
use f2pm_features::{aggregate_run, lasso_path, Dataset, RunTaggedDataset};
use f2pm_linalg::{Cholesky, Standardizer};
use f2pm_ml::{
    persist::SavedModel, Kernel, LsSvmRegressor, M5Params, M5Prime, Metrics, ModelReport, RepTree,
    RepTreeParams, SvrParams, SvrRegressor,
};
use f2pm_monitor::DataHistory;
use f2pm_registry::{ArtifactMeta, ModelStore};
use std::time::Instant;

const RUNS: usize = 12;
/// Each run keeps its last 1700 s: 170 ten-second windows, 2040 rows in
/// 12 runs, the paper's Table II scale of about 2 000 rows.
const SPAN_S: f64 = 1700.0;
/// Histories per run, each from its own seed drawn from the workload
/// seed. A history's fits cost more or less with its data (SVR
/// iterations, the lasso-selected width); builds cycle over several so a
/// run's figure does not hang on one draw. The first build of each is a
/// warm-up (a process's first builds run ~1.6x slower).
const HISTORIES: usize = 6;
/// Methods with a persistable model form, i.e. the ones a build can pick.
const PERSISTABLE: [&str; 5] = ["linear_regression", "m5p", "rep_tree", "svm", "ls_svm"];

fn config() -> F2pmConfig {
    F2pmConfig::builder()
        .runs(RUNS)
        .split_by_runs(true)
        .build()
        .expect("valid benchmark config")
}

/// The run-aware split `run_workflow_on_history` makes: the last
/// ⌈(1 − frac)·runs⌉ runs validate. Rebuilt here so a pick's reloaded
/// artifact can be scored on the rows the workflow validated it on.
struct Split {
    train: Dataset,
    valid: Dataset,
}

fn split(cfg: &F2pmConfig, history: &DataHistory) -> Split {
    let failed: Vec<_> = history
        .runs()
        .into_iter()
        .filter(|r| r.fail_time.is_some())
        .collect();
    let per_run: Vec<_> = failed
        .iter()
        .map(|r| aggregate_run(r, &cfg.aggregation))
        .collect();
    let tagged = RunTaggedDataset::from_run_points_with(&per_run, &cfg.aggregation);
    split_tagged(cfg, &tagged)
}

fn split_tagged(cfg: &F2pmConfig, tagged: &RunTaggedDataset) -> Split {
    let runs = tagged.runs;
    let train_runs = ((runs as f64 * cfg.train_fraction).round() as usize)
        .clamp(1, runs.saturating_sub(1).max(1));
    let (train, valid) = tagged.split_by_runs(&(train_runs..runs).collect::<Vec<_>>());
    Split { train, valid }
}

fn by_names(ds: &Dataset, names: &[String]) -> Dataset {
    let idx: Vec<usize> = names
        .iter()
        .map(|n| ds.column_index(n).expect("variant column exists"))
        .collect();
    ds.select_columns(&idx)
}

/// The best persistable model across variants: `(variant, report)`.
fn pick(report: &F2pmReport) -> Option<(usize, &ModelReport)> {
    report
        .variants
        .iter()
        .enumerate()
        .flat_map(|(i, v)| v.ok_reports().map(move |r| (i, r)))
        .filter(|(_, r)| PERSISTABLE.contains(&r.name.as_str()))
        .min_by(|a, b| a.1.metrics.smae.total_cmp(&b.1.metrics.smae))
}

/// Refit the pick concretely (the report holds it only as a trait
/// object), with the suite's own parameters.
fn refit(name: &str, train: &Dataset) -> Result<SavedModel, String> {
    let (x, y) = (&train.x, &train.y[..]);
    let e = |e: f2pm_ml::MlError| e.to_string();
    Ok(match name {
        "linear_regression" => {
            SavedModel::Linear(f2pm_ml::linreg::LinearModel::fit(x, y).map_err(e)?)
        }
        "m5p" => SavedModel::M5(M5Prime::new(M5Params::default()).fit_m5(x, y).map_err(e)?),
        "rep_tree" => SavedModel::RepTree(
            RepTree::new(RepTreeParams::default())
                .fit_tree(x, y)
                .map_err(e)?,
        ),
        "svm" => SavedModel::Svr(
            SvrRegressor::new(SvrParams {
                kernel: Kernel::Linear,
                c: 100.0,
                ..SvrParams::default()
            })
            .fit_svr(x, y)
            .map_err(e)?,
        ),
        "ls_svm" => SavedModel::LsSvm(
            LsSvmRegressor::new(Kernel::Linear, 10.0)
                .fit_lssvm(x, y)
                .map_err(e)?,
        ),
        other => return Err(format!("{other} has no persistable form")),
    })
}

/// One build's timings and results.
struct Build {
    /// Wall time of workflow + publish + reload (the refit is excluded:
    /// its cost depends on which method wins).
    op_ms: f64,
    cpu_ns: u64,
    publish_ms: f64,
    load_ms: f64,
    /// VmHWM over the workflow, MiB.
    peak_mib: f64,
    pick: String,
    /// Held-out relative S-MAE of the pick.
    rel_smae: f64,
    /// The reloaded artifact predicted the pick's validation rows
    /// bit-identically.
    reload_identical: bool,
    artifact_bytes: u64,
}

fn build(
    cfg: &F2pmConfig,
    history: &DataHistory,
    split: &Split,
    store: &ModelStore,
    mut tracer: Option<&mut Tracer>,
) -> Result<Build, String> {
    // Spans only when tracing; the closure runs either way.
    fn timed<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tr {
            Some(t) => t.span(name, |_| f()),
            None => f(),
        }
    }
    let pid = std::process::id();
    procfs::reset_peak_rss(pid).map_err(|e| format!("resetting VmHWM: {e}"))?;
    let cpu0 = procfs::process_cpu_ns(pid).unwrap_or(0);
    let t0 = Instant::now();
    let report = timed(&mut tracer, "workflow", || {
        f2pm::run_workflow_on_history(cfg, history)
    })
    .map_err(|e| e.to_string())?;
    let (variant, best) = pick(&report).ok_or("no persistable model in the report")?;
    let workflow_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu1 = procfs::process_cpu_ns(pid).unwrap_or(0);
    // The peak of the workflow alone: the refit's footprint depends on
    // which method won.
    let peak_mib = procfs::peak_rss_mib(pid).ok_or("no VmHWM")?;

    let columns = report.variants[variant].columns.clone();
    let (train, valid) = (
        by_names(&split.train, &columns),
        by_names(&split.valid, &columns),
    );
    let saved = timed(&mut tracer, "refit", || refit(&best.name, &train))?;

    let cpu2 = procfs::process_cpu_ns(pid).unwrap_or(0);
    let t1 = Instant::now();
    let meta = ArtifactMeta::new(&best.name, cfg.aggregation, columns, best.metrics.smae);
    let generation = timed(&mut tracer, "publish", || store.publish(&meta, &saved))
        .map_err(|e| e.to_string())?;
    let publish_ms = t1.elapsed().as_secs_f64() * 1e3;
    let t2 = Instant::now();
    let loaded = timed(&mut tracer, "load", || store.load_active()).map_err(|e| e.to_string())?;
    let load_ms = t2.elapsed().as_secs_f64() * 1e3;
    let cpu3 = procfs::process_cpu_ns(pid).unwrap_or(0);

    let (got_generation, _, model) =
        loaded.ok_or("store has no active generation after publish")?;
    let reloaded = timed(&mut tracer, "verify", || {
        model.as_model().predict_batch(&valid.x)
    })
    .map_err(|e| e.to_string())?;
    let reload_identical = got_generation == generation
        && reloaded.len() == best.predictions.len()
        && reloaded
            .iter()
            .zip(&best.predictions)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let artifact_bytes = std::fs::metadata(
        store
            .dir()
            .join(f2pm_registry::store::artifact_name(generation)),
    )
    .map(|m| m.len())
    .unwrap_or(0);
    Ok(Build {
        op_ms: workflow_ms + publish_ms + load_ms,
        cpu_ns: (cpu1 - cpu0) + (cpu3 - cpu2),
        publish_ms,
        load_ms,
        peak_mib,
        pick: best.name.clone(),
        rel_smae: corpus::rel_smae(&best.predictions, &valid.y),
        reload_identical,
        artifact_bytes,
    })
}

struct Inputs {
    history: DataHistory,
    split: Split,
}

fn make_inputs(cfg: &F2pmConfig, seed: u64) -> Result<Inputs, String> {
    let runs = corpus::trimmed_runs(seed, &[SPAN_S; RUNS])?;
    let history = DataHistory::from_campaign(&runs);
    let split = split(cfg, &history);
    Ok(Inputs { history, split })
}

/// The op figure of one phase: the mean over histories of each
/// history's median build, so every history weighs the same.
fn per_history(builds: &[(usize, Build)]) -> f64 {
    let per: Vec<f64> = (0..HISTORIES)
        .map(|h| {
            let ops: Vec<f64> = builds
                .iter()
                .filter(|(i, _)| *i == h)
                .map(|(_, b)| b.op_ms)
                .collect();
            median(&ops)
        })
        .collect();
    mean(&per)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = config();
    let mut out = Outcome::default();

    // Set-up, once per history: generate it and open a fresh store.
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    let mut seeds = corpus::choice_rng(args.seed);
    for i in 0..HISTORIES {
        let t = Instant::now();
        let made = make_inputs(&cfg, seeds.next_u64())?;
        let store = ModelStore::open(args.work_dir.join(format!("store-{i}")))
            .map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        inputs.push((made, store));
    }
    out.e2e("setup_s", v(median(&setups), setups.len()));
    out.notes.push(format!(
        "inputs: {HISTORIES} histories of {RUNS} runs x last {SPAN_S} s, {} train + {} validation rows each",
        inputs[0].0.split.train.len(),
        inputs[0].0.split.valid.len()
    ));

    // Quality on the reference corpus (not timed).
    let reference = make_inputs(&cfg, REFERENCE_SEED)?;
    let ref_store =
        ModelStore::open(args.work_dir.join("store-reference")).map_err(|e| e.to_string())?;
    let rb = build(&cfg, &reference.history, &reference.split, &ref_store, None)?;
    out.check(
        "reference pick reloads bit-identically",
        rb.reload_identical,
    );
    out.e2e("quality_rel_smae", v(rb.rel_smae, 1));
    out.notes.push(format!(
        "reference pick {} rel S-MAE {:.6}",
        rb.pick, rb.rel_smae
    ));

    for (made, store) in &inputs {
        build(&cfg, &made.history, &made.split, store, None)?;
    }

    // Timed builds cycle over the histories; with tracing, the second
    // half of the time is traced.
    let mut phases: Vec<Vec<(usize, Build)>> = Vec::new();
    let plan: &[(bool, f64)] = if args.trace {
        &[(false, 0.5), (true, 0.5)]
    } else {
        &[(false, 1.0)]
    };
    let mut tracer = Tracer::new();
    for &(traced, frac) in plan {
        let end = Instant::now() + std::time::Duration::from_secs_f64(args.seconds * frac);
        let mut builds = Vec::new();
        let mut tr = traced.then(Tracer::new);
        let mut k = 0;
        // Whole rounds over the histories only.
        while k < 2 * HISTORIES || k % HISTORIES != 0 || Instant::now() < end {
            let h = k % HISTORIES;
            k += 1;
            let (made, store) = &inputs[h];
            out.attempted += 1;
            let b = match &mut tr {
                Some(t) => t.span("build", |t| {
                    build(&cfg, &made.history, &made.split, store, Some(t))
                }),
                None => build(&cfg, &made.history, &made.split, store, None),
            };
            match b {
                Ok(b) => {
                    if !b.reload_identical {
                        out.failed += 1;
                    }
                    builds.push((h, b));
                }
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("build failed: {e}"));
                }
            }
        }
        if let Some(t) = tr {
            tracer = t;
        }
        phases.push(builds);
    }
    let untraced = &phases[0];
    if (0..HISTORIES).any(|h| !untraced.iter().any(|(i, _)| *i == h)) {
        return Err("a history has no successful build".into());
    }
    out.check(
        "every reloaded pick predicts bit-identically to the in-memory pick",
        phases.iter().flatten().all(|(_, b)| b.reload_identical),
    );
    out.e2e("op_ms", v(per_history(untraced), untraced.len()));
    let cpu: Vec<f64> = untraced
        .iter()
        .map(|(_, b)| b.cpu_ns as f64 / 1e3)
        .collect();
    out.e2e("cpu_us_per_op", v(mean(&cpu), cpu.len()));
    let peaks: Vec<f64> = untraced.iter().map(|(_, b)| b.peak_mib).collect();
    // A mean: one build's peak depends on which grid cells happened to
    // overlap and on how many thread arenas still hold a freed kernel
    // matrix, so the peaks of a run fall in clusters a median jumps
    // between.
    out.e2e("peak_rss_mib", v(mean(&peaks), peaks.len()));
    for (h, b) in untraced.iter().take(HISTORIES) {
        out.notes.push(format!(
            "history {h}: pick {} held-out rel S-MAE {:.6}",
            b.pick, b.rel_smae
        ));
    }
    out.notes.push(format!("{} builds timed", untraced.len()));

    if args.trace {
        let traced = &phases[1];
        let (t_ops, u_ops) = (per_history(traced), per_history(untraced));
        let overhead = 100.0 * (t_ops - u_ops) / u_ops;
        out.layer("trace.overhead_pct", v(overhead, traced.len()));
        out.notes.push(format!(
            "tracing overhead: traced {t_ops:.3} ms vs untraced {u_ops:.3} ms per build ({overhead:+.2}%)"
        ));
        let publish: Vec<f64> = traced.iter().map(|(_, b)| b.publish_ms).collect();
        let load: Vec<f64> = traced.iter().map(|(_, b)| b.load_ms).collect();
        out.layer("registry.publish_ms", v(median(&publish), publish.len()));
        out.layer("registry.load_ms", v(median(&load), load.len()));
        let kib: Vec<f64> = traced
            .iter()
            .map(|(_, b)| b.artifact_bytes as f64 / 1024.0)
            .collect();
        out.layer("registry.artifact_kib", v(median(&kib), kib.len()));
        out.notes
            .extend(attribution(&tracer, "build", traced.len(), layer_of));
        replay(&cfg, &inputs[0].0.history, &mut tracer, &mut out)?;
        tracer
            .write_jsonl(&args.spans_path())
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

fn layer_of(span: &str) -> &'static str {
    match span {
        "workflow" => "core",
        "refit" | "verify" | "grid" | "validate" => "ml",
        s if s.starts_with("fit:") => "ml",
        "publish" | "load" => "registry",
        "aggregate" | "dataset" | "lasso_path" | "select" => "features",
        "kernel_matrix" | "cholesky" => "linalg",
        _ => "unattributed",
    }
}

/// Stage names of a replayed build, so `span` can take `&'static str`.
fn fit_span(method: &str) -> &'static str {
    match method {
        "ls_svm" => "fit:ls_svm",
        "svm" => "fit:svm",
        "m5p" => "fit:m5p",
        "rep_tree" => "fit:rep_tree",
        "linear_regression" => "fit:linear_regression",
        _ => "fit:lasso",
    }
}

const REPLAYS: usize = 3;

/// Replay one build stage by stage through the public calls
/// `run_workflow_on_history` makes, and check it reaches the same
/// scores.
fn replay(
    cfg: &F2pmConfig,
    history: &DataHistory,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let reference = f2pm::run_workflow_on_history(cfg, history).map_err(|e| e.to_string())?;
    let suite = f2pm_ml::paper_method_suite(&cfg.lasso_predictor_lambdas);
    let mut agree = true;
    let mut efficiency = Vec::new();
    let mut grid_ms = Vec::new();
    for _ in 0..REPLAYS {
        let variants = tr.span("replay", |tr| -> Result<Vec<(Dataset, Dataset)>, String> {
            let failed: Vec<_> = history
                .runs()
                .into_iter()
                .filter(|r| r.fail_time.is_some())
                .collect();
            let per_run: Vec<_> = tr.span("aggregate", |_| {
                failed
                    .iter()
                    .map(|r| aggregate_run(r, &cfg.aggregation))
                    .collect()
            });
            let sp = tr.span("dataset", |_| {
                split_tagged(
                    cfg,
                    &RunTaggedDataset::from_run_points_with(&per_run, &cfg.aggregation),
                )
            });
            let sel = tr.span("lasso_path", |_| {
                lasso_path(&sp.train, &cfg.lambda_grid, &cfg.lasso_solver)
            });
            let variants: Vec<(Dataset, Dataset)> = tr.span("select", |_| {
                let mut vs = vec![(sp.train.clone(), sp.valid.clone())];
                if let Some(point) = sel.strongest_selection(cfg.min_selected_features) {
                    vs.push((
                        by_names(&sp.train, &point.selected_names),
                        by_names(&sp.valid, &point.selected_names),
                    ));
                }
                vs
            });
            let cells: Vec<f2pm_ml::GridVariant<'_>> = variants
                .iter()
                .map(|(train, valid)| f2pm_ml::GridVariant { train, valid })
                .collect();
            let t = Instant::now();
            let grid = tr.span("grid", |_| f2pm_ml::evaluate_grid(&suite, &cells, cfg.smae));
            grid_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(grid);
            Ok(variants)
        })?;

        // Off the replay's critical path: each grid cell alone.
        tr.span("decompose", |tr| -> Result<(), String> {
            let mut cells_ms = 0.0;
            for (vi, (train, valid)) in variants.iter().enumerate() {
                for (mi, reg) in suite.iter().enumerate() {
                    let t = Instant::now();
                    let model = tr.span(fit_span(&reg.name()), |_| reg.fit(&train.x, &train.y));
                    let model = model.map_err(|e| e.to_string())?;
                    let m = tr.span("validate", |_| -> Result<Metrics, String> {
                        let p = model.predict_batch(&valid.x).map_err(|e| e.to_string())?;
                        Ok(Metrics::compute(&p, &valid.y, cfg.smae))
                    })?;
                    cells_ms += t.elapsed().as_secs_f64() * 1e3;
                    let want = reference
                        .variants
                        .get(vi)
                        .and_then(|v| v.reports[mi].as_ref().ok());
                    agree &= want.is_some_and(|w| w.metrics.smae.to_bits() == m.smae.to_bits());
                }
            }
            let wall = *grid_ms.last().expect("grid timed above");
            efficiency.push(cells_ms / (f2pm_linalg::pool_threads() as f64 * wall));
            // The LS-SVM fit's linear system at its n, one kernel at a time.
            let std = Standardizer::fit(&variants[0].0.x);
            let z = std.transform(&variants[0].0.x);
            let mut a = tr.span("kernel_matrix", |_| Kernel::Linear.matrix(&z));
            for i in 0..a.rows() {
                a[(i, i)] += 1.0 / 10.0;
            }
            tr.span("cholesky", |_| Cholesky::factor(&a))
                .map_err(|e| e.to_string())?;
            Ok(())
        })?;
    }
    out.check(
        "stage-by-stage replay scores every cell like run_workflow_on_history",
        agree,
    );

    let per = |name: &str| -> f64 { tr.durations_ms(name).iter().sum::<f64>() / REPLAYS as f64 };
    let med = |name: &str| -> f64 { median(&tr.durations_ms(name)) };
    out.layer("features.aggregate_ms", v(med("aggregate"), REPLAYS));
    out.layer("features.lasso_path_ms", v(med("lasso_path"), REPLAYS));
    for (metric, span) in [
        ("ml.fit_ms.ls_svm", "fit:ls_svm"),
        ("ml.fit_ms.svm", "fit:svm"),
        ("ml.fit_ms.m5p", "fit:m5p"),
        ("ml.fit_ms.rep_tree", "fit:rep_tree"),
        ("ml.fit_ms.linear_regression", "fit:linear_regression"),
        ("ml.fit_ms.lasso", "fit:lasso"),
    ] {
        out.layer(metric, v(per(span), REPLAYS));
    }
    out.layer("ml.validate_ms", v(per("validate"), REPLAYS));
    out.layer("ml.grid_wall_ms", v(med("grid"), REPLAYS));
    out.layer("ml.grid_efficiency", v(median(&efficiency), REPLAYS));
    out.layer("linalg.kernel_matrix_ms", v(med("kernel_matrix"), REPLAYS));
    out.layer("linalg.cholesky_ms", v(med("cholesky"), REPLAYS));
    let (selfs, _) = tr.self_times_under("replay");
    let own = selfs.get("replay").copied().unwrap_or(0.0) / REPLAYS as f64;
    out.layer("build.unattributed_ms", v(own, REPLAYS));
    out.notes
        .extend(attribution(tr, "replay", REPLAYS, layer_of));
    out.notes.push(format!(
        "replay: pool_threads {} ; grid efficiency = sum of cells / (pool width x grid wall)",
        f2pm_linalg::pool_threads()
    ));
    Ok(())
}
