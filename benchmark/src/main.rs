//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! oodb-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, JSON on the last line
//! oodb-benchmark run   [--seed N] [--seconds S] [--out FILE]      all seven workloads, end-to-end metrics
//! oodb-benchmark trace [--workload W] [--seed N] [--seconds S]    per-layer metrics + span files
//! oodb-benchmark compare A.json B.json                            apply the bounds, row by row
//! oodb-benchmark aa    [--seed N] [--seconds S]                   two sets back to back, compared
//! oodb-benchmark spread [--runs R] [--seed N] [--workload W]     R seeds per workload, IQR ÷ median
//! oodb-benchmark manifest                                         print BENCHMARK.json
//! ```

mod awake;
mod defs;
mod gen;
mod json;
mod layers;
mod phases;
mod replay;
mod report;
mod spans;
mod stats;
mod trace;

use defs::Metric;
use gen::Spec;
use json::Json;
use report::{Verdict, WorkloadResult};
use stats::Summary;
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn arg_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match arg(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} wants a whole number, got {v}")),
    }
}

fn workload(name: &str) -> Result<Spec, String> {
    gen::spec(name).ok_or_else(|| {
        let known: Vec<&str> = gen::specs().iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })
}

/// One workload's run must end inside the driver's 180 s; a child still
/// running at this point is killed and the run fails.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Run one phase of `spec` in a fresh copy of this binary, wait for it
/// (no longer than `deadline`), and parse the JSON object it prints last.
/// A report is a few kB, so it fits the pipe while the child runs.
fn child(spec: &Spec, seed: u64, phase: &str, deadline: Instant) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut proc = Command::new(exe)
        .args(["child", "--workload", spec.name, "--phase", phase])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("{phase}: cannot start child: {e}"))?;
    let status = loop {
        match proc.try_wait().map_err(|e| format!("{phase}: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                // kill, then reap: no process outlives the run
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!("{phase}: child overran the run's {RUN_LIMIT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    if !status.success() {
        return Err(format!("{phase}: child failed ({status})"));
    }
    let mut text = String::new();
    proc.stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut text)
        .map_err(|e| format!("{phase}: {e}"))?;
    Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("{phase}: bad child report: {e}"))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("n", Json::Num(m.n as f64))]),
                )
            })
            .collect(),
    )
}

fn run_child(args: &[String]) -> Result<Json, String> {
    let spec = workload(arg(args, "--workload").ok_or("child: --workload missing")?)?;
    let seed = arg_u64(args, "--seed", 42)?;
    match arg(args, "--phase").ok_or("child: --phase missing")? {
        "rep" => {
            // spinners for the whole repetition, set-ups included
            let awake = awake::KeepAwake::start();
            let loaded = phases::loaded(
                &spec,
                seed,
                spec.transactions(seed, phases::LOADED_STREAM, spec.loaded),
                awake.cpus() > 0,
            )?;
            let setups = phases::extra_setups(&spec, seed, loaded.f("setup_s"));
            let serial = phases::serial(
                &spec,
                seed,
                spec.transactions(seed, phases::SERIAL_STREAM, spec.serial),
            )?;
            Ok(Json::obj([
                ("awake_cpus", Json::Num(awake.cpus() as f64)),
                (
                    "setups",
                    Json::Arr(setups.into_iter().map(Json::Num).collect()),
                ),
                ("loaded", loaded),
                ("serial", serial),
            ]))
        }
        "check" => {
            let small = spec.for_verification();
            let prefix = spec.loaded.min(phases::VERIFY_TXNS);
            phases::verify(
                &small,
                seed,
                small.transactions(seed, phases::LOADED_STREAM, prefix),
            )
        }
        "layers" => {
            let (metrics, ledger) = trace::layers_child(&spec, seed, spec.serial)?;
            Ok(Json::obj([
                ("metrics", metrics_json(&metrics)),
                (
                    "ledger",
                    Json::Arr(ledger.into_iter().map(Json::Str).collect()),
                ),
            ]))
        }
        other => Err(format!("child: unknown phase {other}")),
    }
}

/// `seed` and `seconds` as every measuring command takes them.
#[derive(Clone, Copy)]
struct Opts {
    seed: u64,
    seconds: u64,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        Ok(Opts {
            seed: arg_u64(args, "--seed", 42)?,
            seconds: arg_u64(args, "--seconds", gen::NOMINAL_SECONDS)?,
        })
    }
}

static NULL: Json = Json::Null;

/// The report of one phase (`loaded`, `serial`, `setups`) of a repetition.
fn part<'a>(rep: &'a Json, phase: &str) -> &'a Json {
    rep.get(phase).unwrap_or(&NULL)
}

/// One workload, start to finish. With `traced` the per-layer metrics,
/// without it the end-to-end ones; the correctness gate runs either way
/// and a failed check never gets as far as a result.
fn run_workload(spec: &Spec, opts: Opts, traced: bool) -> Result<WorkloadResult, String> {
    let Opts { seed, seconds } = opts;
    let deadline = Instant::now() + RUN_LIMIT;
    // every repetition draws its own transactions, so a run's value also
    // averages over inputs and depends less on the one seed it was given
    let rep_seed = |i: usize| seed.wrapping_add(i as u64 * 0x9E37_79B9);
    let reps: Vec<Json> = (0..if traced { 1 } else { gen::reps(seconds) })
        .map(|i| child(spec, rep_seed(i), "rep", deadline))
        .collect::<Result<_, _>>()?;
    let check = child(spec, seed, "check", deadline)?;

    let phases = || {
        reps.iter()
            .flat_map(|r| [part(r, "loaded"), part(r, "serial")])
            .chain([&check])
    };
    let serial = part(&reps[0], "serial");
    let serial_samples = serial.f("samples") as u64;
    let loaded_txns = part(&reps[0], "loaded").f("submitted") as u64;
    let mut result = WorkloadResult {
        name: spec.name.into(),
        attempted: phases().map(|p| p.f("submitted")).sum::<f64>() as u64,
        failed: phases().map(|p| p.f("failed")).sum::<f64>() as u64,
        metrics: Vec::new(),
        reps: Vec::new(),
        notes: vec![
            format!(
                "engine.txn_tail_us (no bound) is {} of {serial_samples} serial transactions: {}",
                serial
                    .get("tail_label")
                    .and_then(Json::str)
                    .unwrap_or("max"),
                reps.iter()
                    .map(|r| format!("{:.1}", part(r, "serial").f("engine.txn_tail_us")))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!("commits_per_s is over {loaded_txns} loaded transactions per repetition"),
            format!(
                "{} repetitions, idle-priority spinners on {} CPUs, {} workers pinned",
                reps.len(),
                reps[0].f("awake_cpus"),
                part(&reps[0], "loaded").f("pinned_workers")
            ),
        ],
    };
    if traced {
        let layers = child(spec, seed, "layers", deadline)?;
        per_layer(spec, &reps[0], &check, &layers, &mut result)?;
    } else {
        end_to_end(&reps, &mut result);
    }
    Ok(result)
}

/// The five end-to-end values out of the repetitions' reports: per
/// repetition one value each, of which the run reports the one its
/// [`defs::Pick`] names.
fn end_to_end(reps: &[Json], result: &mut WorkloadResult) {
    let over_reps = |phase: &str, key: &str| -> Vec<f64> {
        reps.iter().map(|r| part(r, phase).f(key)).collect()
    };
    let first = |phase: &str, key: &str| part(&reps[0], phase).f(key) as u64;
    // each repetition's set-up time is the median of its own samples
    let setup_samples = |r: &Json| -> Vec<f64> {
        part(r, "setups")
            .items()
            .iter()
            .filter_map(Json::num)
            .chain([
                part(r, "loaded").f("setup_s"),
                part(r, "serial").f("setup_s"),
            ])
            .collect()
    };
    let timed = |r: &Json, key: &str| part(r, "loaded").f(key) + part(r, "serial").f(key);
    let per_rep = |f: &dyn Fn(&Json) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    for (name, values, n) in [
        (
            "commits_per_s",
            over_reps("loaded", "commits_per_s"),
            first("loaded", "submitted"),
        ),
        (
            "txn_p50_us",
            over_reps("serial", "txn_p50_us"),
            first("serial", "samples"),
        ),
        (
            "peak_rss_mb",
            over_reps("loaded", "peak_rss_mb"),
            reps.len() as u64,
        ),
        (
            "commit_frac",
            per_rep(&|r| 1.0 - timed(r, "failed") / timed(r, "submitted")),
            reps.iter().map(|r| timed(r, "submitted")).sum::<f64>() as u64,
        ),
        (
            "setup_s",
            per_rep(&|r| stats::median(&setup_samples(r))),
            setup_samples(&reps[0]).len() as u64,
        ),
    ] {
        let def = defs::end_to_end(name).expect("declared end-to-end metric");
        let summary = Summary::of(&values);
        let value = def.reported(&values);
        result.metrics.push(Metric {
            name: name.into(),
            value,
            unit: def.unit,
            n,
        });
        let disagreement = def.disagreement(value, &summary);
        if disagreement > def.bound {
            result.notes.push(format!(
                "{name}: repetitions disagree by {:.1}% > bound {:.1}% — unresolved",
                disagreement * 100.0,
                def.bound * 100.0
            ));
        }
        result.reps.push((name.into(), summary));
    }
}

/// Every per-layer value: from the traced child where it measured one,
/// else from the engine-driven phases, else derived from both.
fn per_layer(
    spec: &Spec,
    rep: &Json,
    check: &Json,
    layers: &Json,
    result: &mut WorkloadResult,
) -> Result<(), String> {
    let (loaded, serial) = (part(rep, "loaded"), part(rep, "serial"));
    let (loaded_txns, serial_samples) = (loaded.f("submitted") as u64, serial.f("samples") as u64);
    let measured = part(layers, "metrics");
    let txn_p50 = serial.f("txn_p50_us");
    let ledger_sum = measured.get("ledger.sum_us").map_or(0.0, |m| m.f("value"));
    for (name, _, _) in &defs::PER_LAYER {
        let (value, n) = if let Some(m) = measured.get(name) {
            (m.f("value"), m.f("n") as u64)
        } else if let Some(v) = loaded.get(name).and_then(Json::num) {
            // one engine started and shut down; everything else is over
            // the loaded phase's transactions
            let once = name.ends_with("start_ms") || name.ends_with("shutdown_ms");
            (v, if once { 1 } else { loaded_txns })
        } else if let Some(v) = serial.get(name).and_then(Json::num) {
            (v, serial_samples)
        } else if let Some(v) = check.get(name).and_then(Json::num) {
            (v, check.f("submitted") as u64)
        } else {
            match *name {
                "engine.overhead_us" => (txn_p50 - ledger_sum, serial_samples),
                "ledger.residual_frac" => ((txn_p50 - ledger_sum) / txn_p50, serial_samples),
                _ => return Err(format!("no phase reported {name}")),
            }
        };
        result.metrics.push(defs::layer(name, value, n));
    }
    let ledger = part(layers, "ledger").items().iter();
    result
        .notes
        .extend(ledger.filter_map(Json::str).map(String::from));
    result.notes.push(format!(
        "ledger: txn_p50_us {txn_p50:.1} = layer spans {ledger_sum:.1} + engine shell {:.1}; spans in {}",
        txn_p50 - ledger_sum,
        trace::out_dir().join(format!("trace_{}.json", spec.name)).display()
    ));
    Ok(())
}

/// The driver's contract: one workload, human lines, then one JSON line.
fn driver(args: &[String]) -> Result<bool, String> {
    let spec = workload(arg(args, "--workload").ok_or("--workload missing")?)?;
    let traced = match arg_u64(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace wants 0 or 1, got {other}")),
    };
    let result = run_workload(&spec, Opts::parse(args)?, traced)?;
    result.print_lines();
    println!("{}", result.driver_json().render());
    Ok(true)
}

/// The workloads `--workload` selects: one, or all seven in order (the
/// gated four and the three the driver has no time for).
fn selected(args: &[String]) -> Result<Vec<Spec>, String> {
    match arg(args, "--workload") {
        Some(name) => Ok(vec![workload(name)?]),
        None => Ok(gen::specs()),
    }
}

/// Every selected workload, one at a time.
fn run_set(args: &[String], traced: bool) -> Result<Vec<WorkloadResult>, String> {
    let opts = Opts::parse(args)?;
    selected(args)?
        .iter()
        .map(|spec| {
            let r = run_workload(spec, opts, traced)?;
            r.print_lines();
            Ok(r)
        })
        .collect()
}

fn write_results(
    args: &[String],
    path: &std::path::Path,
    results: &[WorkloadResult],
) -> Result<Json, String> {
    let Opts { seed, seconds } = Opts::parse(args)?;
    let file = report::result_file(seed, seconds, gen::reps(seconds), results);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(file)
}

fn read_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Rows printed; `Ok(false)` when any row is `worse`.
fn compare(base: &Json, new: &Json) -> Result<bool, String> {
    let rows = report::compare(base, new)?;
    report::print_rows(&rows);
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} worse, {} unresolved, {} within, {} better",
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Within),
        count(Verdict::Better)
    );
    Ok(count(Verdict::Worse) == 0)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let command = args.first().map(String::as_str);
    let measures = !matches!(command, Some("compare" | "manifest"));
    if measures && cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    let out = |file: &str| trace::out_dir().join(file);
    match command {
        Some("child") => {
            println!("{}", run_child(args)?.render());
            Ok(true)
        }
        Some("run") => {
            let results = run_set(args, false)?;
            let path = arg(args, "--out").map_or_else(|| out("run.json"), Into::into);
            write_results(args, &path, &results).map(|_| true)
        }
        Some("trace") => run_set(args, true).map(|_| true),
        Some("compare") => match args {
            [_, a, b] => compare(&read_results(a)?, &read_results(b)?),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("aa") => {
            let first = write_results(args, &out("aa_first.json"), &run_set(args, false)?)?;
            let second = write_results(args, &out("aa_second.json"), &run_set(args, false)?)?;
            compare(&first, &second)
        }
        Some("spread") => spread(args),
        Some("manifest") => {
            println!("{}", defs::manifest_text());
            Ok(true)
        }
        _ => driver(args),
    }
}

/// The driver's acceptance test: `--runs` runs per workload, each on
/// another seed; per end-to-end metric the distance between the first
/// and third quartile as a share of the median must stay inside the
/// metric's bound (`setup_s` is reported but not gated).
fn spread(args: &[String]) -> Result<bool, String> {
    let Opts { seed, seconds } = Opts::parse(args)?;
    let runs = arg_u64(args, "--runs", 10)?;
    let mut steady = true;
    for spec in selected(args)? {
        let results: Vec<WorkloadResult> = (0..runs)
            .map(|i| {
                let opts = Opts {
                    seed: seed + i,
                    seconds,
                };
                run_workload(&spec, opts, false)
            })
            .collect::<Result<_, _>>()?;
        for def in &defs::END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .flat_map(|r| &r.metrics)
                .filter(|m| m.name == def.name)
                .map(|m| m.value)
                .collect();
            let share = stats::iqr_share(&values);
            let above = def.name != "setup_s" && share > def.bound;
            steady &= !above;
            println!(
                "{:<14} {:<14} median {:>14.4} {:<5} iqr/median {:>6.2}%  bound {:>5.1}%{}",
                spec.name,
                def.name,
                stats::median(&values),
                def.unit,
                share * 100.0,
                def.bound * 100.0,
                if above { "  ABOVE BOUND" } else { "" }
            );
            let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("{:<14} {:<14} runs {}", spec.name, def.name, each.join(" "));
        }
    }
    Ok(steady)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
