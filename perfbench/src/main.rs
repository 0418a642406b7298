//! Benchmark of `Arda::run`, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <taxi|school_l_lake|school> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run covers several scenario instances, generated from the seed
//! (instance `j` of seed `s` uses generator seed `1000·s + j`), each under
//! `ArdaConfig::default()`.
//!
//! `--trace 0` runs `Arda::run` on the instances in turn until `--seconds`
//! have passed and every instance has run, the first one twice. Each run
//! gets fresh inputs, set up four times just before it (`setup_s` is the
//! median set-up; on the lake each one is scaled by a file-system
//! calibration timed just before it). A run must equal its instance's
//! first run, bit for bit (score bits, selected columns, join counts and
//! the augmented table's `.arda` bytes); an error or a mismatch counts as
//! failed. `run_s` is the wall time scaled by a CPU calibration job timed
//! around each run, as per-instance medians averaged over the instances.
//! The raw wall times are printed on the line before the result.
//!
//! `--trace 1` runs `Arda::run` once on the first instance, then replays it
//! stage by stage (see `replay`) and reports the per-layer metrics. When
//! the replay does not reproduce the run bit for bit its numbers are marked
//! stale (`replay.fidelity` = 0); that is not a failed operation.
//!
//! The last line of standard output is the result object. The lines before
//! it record the environment (available parallelism, budget width, git
//! revision, seed), the output fingerprint (a hash of every checked output
//! of every instance, which moves whenever a change alters the pipeline's
//! numerics) and per-instance details. Seed 9001 is held out: a claimed
//! gain must also hold on it.

mod replay;
mod sys;
mod workload;

use arda_core::{Arda, ArdaConfig, AugmentationReport};
use replay::{replay, Layers, Replayed};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sys::{median, Json};
use workload::{set_up, Scale, Workload};

/// Where per-process shard directories go, relative to the checkout root.
const DEFAULT_TMP: &str = ".bench_build/perfbench-tmp";

const USAGE: &str = "usage: perfbench --workload <taxi|school|school_l_lake> --seed <n> \
                     --seconds <s> --trace <0|1> [--tmp <dir>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut tmp = PathBuf::from(DEFAULT_TMP);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("want a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("want 0 or 1")),
                    })
                }
                "--tmp" => tmp = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tmp,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("perfbench: create {}: {e}", args.tmp.display());
        return ExitCode::FAILURE;
    }
    println!("perfbench env {}", environment(&args));
    let outcome = if args.trace {
        traced(args.workload, args.seed, &args.tmp)
    } else {
        timed(
            args.workload,
            args.seed,
            Duration::from_secs_f64(args.seconds),
            &args.tmp,
        )
    };
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// The run environment, recorded with every result.
fn environment(args: &Args) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        (
            "budget_width",
            Json::Num(arda_par::current_budget().width() as f64),
        ),
        ("git_rev", Json::Str(sys::git_revision())),
    ])
}

/// The result object printed as the last line.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// `(name, unit, value)`.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, unit, value)| {
            let m = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]);
            (name, m)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// What the benchmark keeps of one `Arda::run`: the bit-exact fingerprint
/// the output check compares, and what the quality metrics need.
#[derive(Debug, Clone)]
struct RunOutput {
    /// FNV-1a over the score bits, the selected list, `joins_executed`,
    /// `tr_eliminated` and the augmented table's `.arda` encoding.
    fingerprint: u64,
    base_score: f64,
    augmented_score: f64,
    /// `(table, column)` of each kept foreign column.
    selected: Vec<(String, String)>,
}

impl RunOutput {
    fn of(report: &AugmentationReport) -> RunOutput {
        let selected = selected_columns(report);
        let mut bytes = Vec::new();
        bytes.extend(report.base_score.to_bits().to_le_bytes());
        bytes.extend(report.augmented_score.to_bits().to_le_bytes());
        for (table, column) in &selected {
            for s in [table, column] {
                bytes.extend((s.len() as u64).to_le_bytes());
                bytes.extend(s.as_bytes());
            }
        }
        bytes.extend((report.joins_executed as u64).to_le_bytes());
        bytes.extend((report.tr_eliminated as u64).to_le_bytes());
        bytes.extend(arda_bytes(&report.augmented));
        let fingerprint = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        RunOutput {
            fingerprint,
            base_score: report.base_score,
            augmented_score: report.augmented_score,
            selected,
        }
    }
}

/// `(table, column)` of each foreign column a run kept.
fn selected_columns(report: &AugmentationReport) -> Vec<(String, String)> {
    report
        .selected
        .iter()
        .map(|s| (s.table.clone(), s.column.clone()))
        .collect()
}

/// A table's bit-exact `.arda` encoding: two tables are the same, bit for
/// bit, when these bytes are.
fn arda_bytes(table: &arda_table::Table) -> Vec<u8> {
    let mut bytes = Vec::new();
    arda_table::write_arda(table, &mut bytes).expect("encoding into a Vec cannot fail");
    bytes
}

/// Quality of one output against the scenario's planted ground truth:
/// `(signal_recall, decoy_columns_kept)`.
fn quality(output: &RunOutput, relevant: &[String]) -> (f64, usize) {
    let hit = relevant
        .iter()
        .filter(|r| output.selected.iter().any(|(t, _)| t == *r))
        .count();
    let decoys = output
        .selected
        .iter()
        .filter(|(t, _)| !relevant.contains(t))
        .count();
    (hit as f64 / relevant.len().max(1) as f64, decoys)
}

/// Set-ups before each run; `setup_s` is the median over all of them.
const SETUPS_PER_RUN: usize = 4;

/// Times of one successful `Arda::run`.
struct Timing {
    wall: f64,
    cpu: f64,
    /// Mean of the calibration jobs timed just before and just after it.
    calibration: f64,
}

impl Timing {
    /// Wall time scaled to the reference machine. The host's speed drifts
    /// over minutes; scaling by a fixed job timed on either side of the run
    /// keeps most of that drift out of `run_s`. The scale is the square
    /// root of the job's slowdown because the pipeline slows about half as
    /// much as the compute-dense job does: on a shared 2-vCPU VM a 1.65×
    /// slower job came with a 1.25× slower run, and over five-seed sets the
    /// square root kept the spread of `run_s` at or below 0.14 where the
    /// full ratio let it reach 0.36 and no scaling 0.23.
    fn scaled(&self) -> f64 {
        self.wall * (sys::CALIBRATION_REFERENCE_S / self.calibration).sqrt()
    }
}

/// One instance's record in a timed run.
#[derive(Default)]
struct Instance {
    /// The first output, which every later run of the instance must equal,
    /// and its `(signal_recall, decoy_columns_kept)`.
    first: Option<(RunOutput, (f64, usize))>,
    times: Vec<Timing>,
}

impl Instance {
    /// Median over this instance's runs of one of its times.
    fn median_of(&self, pick: fn(&Timing) -> f64) -> f64 {
        median(&self.times.iter().map(pick).collect::<Vec<_>>())
    }
}

/// End-to-end run: run `Arda::run` on the instances in turn until `seconds`
/// have passed and each has run once and the first twice. Before each run
/// the instance is set up afresh `SETUPS_PER_RUN` times and the last set-up
/// is run, so every run starts from a cold repository and the set-up
/// samples span the whole run. Times are per-instance medians, averaged
/// over instances; scores are averaged over instances.
fn timed(workload: Workload, seed: u64, seconds: Duration, tmp: &Path) -> Result<Outcome, String> {
    let k = workload.instances();
    // `(raw, scaled)` seconds of every set-up.
    let mut setup_s: Vec<(f64, f64)> = Vec::new();
    let mut set_up_timed = |j: usize| {
        // Writeback from earlier set-ups and removed shard dirs lands here,
        // untimed.
        sys::flush_writeback();
        // The lake's set-up is mostly file creation, whose speed on a shared
        // disk moves by 3× over minutes; scaling it by the same file work
        // timed just before keeps that out of `setup_s`. The in-memory
        // set-ups are reported as measured.
        let scale = if workload == Workload::SchoolLLake {
            let fs = sys::fs_calibrate(tmp, workload::LAKE_SHARDS, workload::LAKE_SHARD_BYTES)?;
            sys::flush_writeback();
            sys::FS_CALIBRATION_REFERENCE_S / fs
        } else {
            1.0
        };
        let (inputs, secs) = set_up(workload, Scale::Full, Workload::instance_seed(seed, j), tmp)?;
        setup_s.push((secs, secs * scale));
        Ok::<_, String>(inputs)
    };

    let mut instances: Vec<Instance> = (0..k).map(|_| Instance::default()).collect();
    let arda = Arda::new(ArdaConfig::default());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let start = Instant::now();
    while attempted <= k || start.elapsed() < seconds {
        let j = attempted % k;
        attempted += 1;
        let mut inputs = set_up_timed(j)?;
        for _ in 1..SETUPS_PER_RUN {
            inputs = set_up_timed(j)?;
        }
        sys::flush_writeback();

        let sc = &inputs.scenario;
        let calibration_before = sys::calibrate();
        let cpu_before = sys::usage().cpu_s;
        let t = Instant::now();
        let report = arda.run(&sc.base, &inputs.repo, &sc.target);
        let wall = t.elapsed().as_secs_f64();
        let cpu = sys::usage().cpu_s - cpu_before;
        let calibration = (calibration_before + sys::calibrate()) / 2.0;
        let output = match report {
            Ok(report) => RunOutput::of(&report),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: instance {j}: Arda::run failed: {e}");
                continue;
            }
        };
        let inst = &mut instances[j];
        inst.times.push(Timing {
            wall,
            cpu,
            calibration,
        });
        match &inst.first {
            None => {
                let q = quality(&output, &sc.relevant_tables);
                inst.first = Some((output, q));
            }
            Some((first, _)) if first.fingerprint != output.fingerprint => {
                failed += 1;
                eprintln!("perfbench: instance {j}: output differs from its first run");
            }
            Some(_) => {}
        }
    }

    let mut firsts = Vec::with_capacity(k);
    for inst in &instances {
        let first = inst.first.as_ref().ok_or_else(|| {
            format!("an instance never ran successfully ({failed} of {attempted} runs failed)")
        })?;
        firsts.push(first);
    }
    let fingerprint = firsts
        .iter()
        .fold(0u64, |h, (out, _)| h.rotate_left(5) ^ out.fingerprint);
    println!(
        "perfbench fingerprint {} seed {seed} {fingerprint:016x}",
        workload.name()
    );
    let detail = instances
        .iter()
        .zip(&firsts)
        .enumerate()
        .map(|(j, (inst, (out, q)))| {
            let entry = Json::obj([
                (
                    "scenario_seed",
                    Json::Num(Workload::instance_seed(seed, j) as f64),
                ),
                ("runs", Json::Num(inst.times.len() as f64)),
                ("run_s", Json::Num(inst.median_of(Timing::scaled))),
                ("wall_s", Json::Num(inst.median_of(|t| t.wall))),
                ("cpu_s", Json::Num(inst.median_of(|t| t.cpu))),
                (
                    "calibration_s",
                    Json::Num(inst.median_of(|t| t.calibration)),
                ),
                ("base_score", Json::Num(out.base_score)),
                ("augmented_score", Json::Num(out.augmented_score)),
                ("signal_recall", Json::Num(q.0)),
                ("decoy_columns_kept", Json::Num(q.1 as f64)),
            ]);
            (format!("instance{j}"), entry)
        });
    println!("perfbench instances {}", Json::obj(detail));
    let samples = |pick: fn(&(f64, f64)) -> f64| setup_s.iter().map(pick).collect::<Vec<_>>();
    println!(
        "perfbench setup_s {:?}",
        samples(|s| s.1)
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );

    let mean = |f: &dyn Fn(usize) -> f64| (0..k).map(f).sum::<f64>() / k as f64;
    let run_s = mean(&|j| instances[j].median_of(Timing::scaled));
    // Raw wall times, for checking any comparison of the scaled metrics.
    println!(
        "perfbench wall {}",
        Json::obj([
            (
                "run_s",
                Json::Num(mean(&|j| instances[j].median_of(|t| t.wall)))
            ),
            ("setup_s", Json::Num(median(&samples(|s| s.0)))),
            (
                "calibration_s",
                Json::Num(mean(&|j| instances[j].median_of(|t| t.calibration)))
            ),
        ])
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("run_s", "s", run_s),
            ("setup_s", "s", median(&samples(|s| s.1))),
            ("peak_rss_mb", "MiB", sys::usage().peak_rss_mb),
            (
                "augmented_score",
                "score",
                mean(&|j| firsts[j].0.augmented_score),
            ),
            ("signal_recall", "fraction", mean(&|j| firsts[j].1 .0)),
            (
                "success_rate",
                "fraction",
                1.0 - failed as f64 / attempted as f64,
            ),
        ],
    })
}

/// Traced run on the seed's first instance: one `Arda::run`, then the
/// stage-by-stage replay.
fn traced(workload: Workload, seed: u64, tmp: &Path) -> Result<Outcome, String> {
    let scenario_seed = Workload::instance_seed(seed, 0);
    let (inputs, _) = set_up(workload, Scale::Full, scenario_seed, tmp)?;
    let trace = trace_inputs(&inputs);
    let verdict = match (&trace.run_error, &trace.stale) {
        (Some(e), _) => format!("Arda::run failed: {e}"),
        (None, Some(why)) => format!("stale: {why}"),
        (None, None) => "matches Arda::run bit for bit".into(),
    };
    println!(
        "perfbench replay {} seed {seed} scenario_seed {scenario_seed}: {verdict}",
        workload.name()
    );
    Ok(Outcome {
        attempted: 1,
        failed: usize::from(trace.run_error.is_some()),
        metrics: trace.layers.entries().collect(),
    })
}

/// What a traced run found.
struct Trace {
    layers: Layers,
    /// Why the reference `Arda::run` failed, if it did.
    run_error: Option<String>,
    /// Why the replay's numbers are stale: it failed or did not reproduce
    /// the run.
    stale: Option<String>,
}

/// Run `Arda::run` and then the replay on `inputs`, and compare them.
fn trace_inputs(inputs: &workload::Inputs) -> Trace {
    let sc = &inputs.scenario;
    let cfg = ArdaConfig::default();
    let reference = Arda::new(cfg.clone()).run(&sc.base, &inputs.repo, &sc.target);

    let mut layers = Layers::default();
    layers.set("table.index_s", inputs.index_s);
    layers.set("table.header_scans", inputs.repo.header_scans() as f64);
    layers.set("par.width", arda_par::current_budget().width() as f64);
    arda_par::reset_spawn_counters();
    let cpu_before = sys::usage().cpu_s;
    let replayed = replay(&sc.base, &inputs.repo, &sc.target, &cfg, &mut layers);
    layers.set("par.cpu_s", sys::usage().cpu_s - cpu_before);
    layers.set("par.peak_workers", arda_par::peak_spawned_workers() as f64);

    let mut trace = Trace {
        layers,
        run_error: None,
        stale: None,
    };
    match (&reference, &replayed) {
        (Err(e), _) => trace.run_error = Some(e.to_string()),
        (Ok(_), Err(e)) => trace.stale = Some(format!("replay failed: {e}")),
        (Ok(run), Ok(rep)) => {
            trace.stale = mismatch(run, rep).map(|what| format!("{what} differs"));
            let (_, decoys) = quality(&RunOutput::of(run), &sc.relevant_tables);
            trace.layers.set("select.decoy_columns_kept", decoys as f64);
            trace.layers.set("ml.base_score", run.base_score);
        }
    }
    let fidelity = trace.run_error.is_none() && trace.stale.is_none();
    trace
        .layers
        .set("replay.fidelity", f64::from(u8::from(fidelity)));
    trace
}

/// The first field where the replay differs from the run, if any.
fn mismatch(run: &AugmentationReport, rep: &Replayed) -> Option<&'static str> {
    if run.base_score.to_bits() != rep.base_score.to_bits() {
        Some("base score")
    } else if run.augmented_score.to_bits() != rep.augmented_score.to_bits() {
        Some("augmented score")
    } else if selected_columns(run) != rep.selected {
        Some("selected column list")
    } else if run.joins_executed != rep.joins_executed {
        Some("join count")
    } else if arda_bytes(&run.augmented) != arda_bytes(&rep.augmented) {
        Some("augmented table")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Inputs;

    fn tmp_root() -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/selftest-tmp");
        std::fs::create_dir_all(&root).unwrap();
        root
    }

    fn tiny(workload: Workload, seed: u64) -> Inputs {
        set_up(workload, Scale::Tiny, seed, &tmp_root()).unwrap().0
    }

    fn run_output(inputs: &Inputs) -> RunOutput {
        let sc = &inputs.scenario;
        let report = Arda::default()
            .run(&sc.base, &inputs.repo, &sc.target)
            .unwrap();
        RunOutput::of(&report)
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = run_output(&tiny(w, 5));
            let b = run_output(&tiny(w, 5));
            assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
            let c = run_output(&tiny(w, 6));
            assert_ne!(a.fingerprint, c.fingerprint, "{}", w.name());
        }
    }

    #[test]
    fn replay_matches_arda_run_on_every_workload() {
        for w in Workload::ALL {
            let inputs = tiny(w, 11);
            let trace = trace_inputs(&inputs);
            assert_eq!(trace.run_error, None, "{}", w.name());
            assert_eq!(trace.stale, None, "{}", w.name());
            let layers = trace.layers;
            assert_eq!(layers.get("replay.fidelity"), 1.0);
            assert!(layers.get("join.joins") > 0.0, "{}", w.name());
            assert!(layers.get("select.rifs_s") > 0.0, "{}", w.name());
            assert!(layers.get("select.l21_iterations") > 0.0, "{}", w.name());
            let svm = layers.get("ml.estimate_svm_s");
            assert_eq!(svm > 0.0, w != Workload::Taxi, "{}: svm {svm}", w.name());
            let lake = w == Workload::SchoolLLake;
            assert_eq!(layers.get("table.header_scans") == 350.0, lake);
            assert_eq!(layers.get("table.index_s") > 0.0, lake);
        }
    }

    #[test]
    fn mismatch_is_reported() {
        let inputs = tiny(Workload::Taxi, 2);
        let sc = &inputs.scenario;
        let cfg = ArdaConfig::default();
        let run = Arda::new(cfg.clone())
            .run(&sc.base, &inputs.repo, &sc.target)
            .unwrap();
        let mut rep = replay(
            &sc.base,
            &inputs.repo,
            &sc.target,
            &cfg,
            &mut Layers::default(),
        )
        .unwrap();
        assert_eq!(mismatch(&run, &rep), None);
        rep.augmented_score = f64::from_bits(rep.augmented_score.to_bits() ^ 1);
        assert_eq!(mismatch(&run, &rep), Some("augmented score"));
    }

    #[test]
    fn quality_counts_recall_and_decoys() {
        let inputs = tiny(Workload::Taxi, 1);
        let mut out = run_output(&inputs);
        out.selected = vec![
            ("weather".into(), "temp".into()),
            ("taxi_decoy_0".into(), "noise_f0".into()),
            (String::new(), "orphan".into()),
        ];
        let relevant = vec!["weather".to_string(), "events".to_string()];
        assert_eq!(quality(&out, &relevant), (0.5, 2));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload school_l_lake --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::SchoolLLake);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(parse("--workload pickup --seed 7 --seconds 20 --trace 1").is_err());
        assert!(parse("--workload taxi --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload taxi --seed 7 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload taxi --seed 7 --seconds 5").is_err());
    }

    /// `BENCHMARK.json` at the repository root names the same per-layer
    /// metrics, with the same units, as the traced run reports, and only
    /// workloads this program knows.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit) in replay::LAYER_METRICS {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let start = text.find(r#""workloads""#).unwrap();
        let section = &text[start..start + text[start..].find(']').unwrap()];
        let names: Vec<&str> = section
            .split(r#""name": ""#)
            .skip(1)
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        assert_eq!(names, ["taxi", "school_l_lake"]);
        assert!(names.iter().all(|n| Workload::parse(n).is_some()));
    }
}
