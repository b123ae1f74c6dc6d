//! Seeded inputs, generated with the repository's own simulator.
//!
//! Timed work runs on inputs made from the workload seed. Quality is
//! scored on a reference corpus made from [`REFERENCE_SEED`], which no
//! workload seed changes: an S-MAE drawn from 12 simulated runs moves by
//! tens of percent from one campaign to the next, so only a fixed corpus
//! lets a change in the program's estimates show against it.

use f2pm_monitor::{history::sample_to_datapoint, RunData};
use f2pm_sim::{Campaign, CampaignConfig, Run, SimRng};

pub const REFERENCE_SEED: u64 = 0xf2b1_5eed;

/// Simulated lives drawn per trimmed run; most last too short for the
/// longer spans.
const LIVES_PER_RUN: usize = 4;
/// Most simulated lives tried per trimmed run.
const MAX_LIVES_PER_RUN: usize = 40;

/// A stream for the benchmark's own choices (orders, schedules), apart
/// from the simulator's streams of the same seed.
pub fn choice_rng(seed: u64) -> SimRng {
    SimRng::new(seed ^ 0xc401_ce5e_ed0f_c401)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// One failing run per entry of `spans_s`, each cut to the last
/// `spans_s[i]` seconds before its failure, so every run contributes a
/// fixed number of aggregation windows whatever the seed.
///
/// A fixed pool of [`LIVES_PER_RUN`] simulated lives per run is drawn
/// first, so set-up does about the same work for every seed; the longest
/// spans pick first, each taking the earliest unused life that lasted
/// long enough. Only a pool too short for some span is extended.
pub fn trimmed_runs(seed: u64, spans_s: &[f64]) -> Result<Vec<Run>, String> {
    let campaign = Campaign::new(CampaignConfig::default(), seed);
    let mut rng = SimRng::new(seed);
    let mut lives: Vec<Run> = (0..spans_s.len() * LIVES_PER_RUN)
        .map(|_| campaign.run_once(rng.next_u64()))
        .collect();
    let mut taken = vec![false; lives.len()];
    let mut longest_first: Vec<usize> = (0..spans_s.len()).collect();
    longest_first.sort_by(|&a, &b| spans_s[b].total_cmp(&spans_s[a]));
    let mut out: Vec<Option<Run>> = vec![None; spans_s.len()];
    for i in longest_first {
        let span = spans_s[i];
        let lasts = |r: &Run| r.fail_time.is_some_and(|f| f >= span);
        let k = loop {
            if let Some(k) = (0..lives.len()).find(|&k| !taken[k] && lasts(&lives[k])) {
                break k;
            }
            if lives.len() >= spans_s.len() * MAX_LIVES_PER_RUN {
                return Err(format!("no simulated life of seed {seed} lasted {span} s"));
            }
            lives.push(campaign.run_once(rng.next_u64()));
            taken.push(false);
        };
        taken[k] = true;
        let fail = lives[k]
            .fail_time
            .expect("a life that lasted is a failing one");
        let mut run = Run {
            samples: std::mem::take(&mut lives[k].samples),
            ..lives[k]
        };
        run.samples.retain(|s| s.t >= fail - span);
        out[i] = Some(run);
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every span assigned"))
        .collect())
}

/// Whole simulated lives, boot to failure.
pub fn lives(seed: u64, count: usize) -> Vec<Run> {
    let cfg = CampaignConfig {
        runs: count,
        ..CampaignConfig::default()
    };
    Campaign::new(cfg, seed)
        .run_all()
        .into_iter()
        .filter(|r| r.fail_time.is_some())
        .collect()
}

pub fn run_data(run: &Run) -> RunData {
    RunData {
        datapoints: run.samples.iter().map(sample_to_datapoint).collect(),
        fail_time: run.fail_time,
    }
}

/// Relative S-MAE: the paper's S-MAE (10 % tolerance) over the mean
/// realized RTTF of the scored estimates. Summed in the order given, so a
/// caller that wants an exactly repeating figure passes a fixed order.
pub fn rel_smae(predicted: &[f64], actual: &[f64]) -> f64 {
    let m = f2pm_ml::Metrics::compute(predicted, actual, f2pm_ml::SMaeThreshold::paper_default());
    let mean_actual = actual.iter().map(|y| y.abs()).sum::<f64>() / actual.len() as f64;
    m.smae / mean_actual
}
