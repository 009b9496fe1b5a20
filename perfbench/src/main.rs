//! `perfbench` — the repository's benchmark: host time per warmed cell
//! and per simulated cycle, end to end and split by layer.
//!
//! ```text
//! perfbench --workload <miss-heavy|hit-heavy|time-sampled>
//!     --seed <N>          mixes and per-core streams      [default: 2007]
//!     --seconds <S>       measure whole rounds of cells for at least S s  [default: 30]
//!     --trace <0|1>       0: end-to-end metrics; 1: per-layer metrics  [default: 0]
//!     --spans <FILE>      traced run: write the recorded spans as JSON lines
//!     --record-digests    run one round and print each cell's digest line
//!     --self-test         run one round with one wrong digest; exit 0 iff
//!                         exactly that cell fails
//! ```
//!
//! Every cell runs single-threaded in this process through
//! `Cmp::new` → `Cmp::warm` → `Cmp::run` → `Cmp::reset_stats` →
//! `Cmp::run` → `Cmp::snapshot`, and is checked (see `check.rs`). The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod cell;
mod check;
mod probe;
mod replay;
mod report;
mod spans;
mod workload;

use std::time::{Duration, Instant};

use check::Expected;
use report::Metric;
use spans::Tracer;
use workload::{Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    record_digests: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::MissHeavy,
        seed: 2007,
        seconds: 30,
        trace: false,
        spans: None,
        record_digests: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            "--record-digests" => args.record_digests = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Runs every cell of `plan` once.
fn run_round(
    plan: &Plan,
    expected: &Expected,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Vec<cell::CellRun> {
    let t = Instant::now();
    let span = tracer.open("round", parent, t);
    let runs: Vec<cell::CellRun> = plan
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| cell::run_cell(plan, c, expected.get(i), tracer, span))
        .collect();
    tracer.close(span, Instant::now());
    for (i, r) in runs.iter().enumerate() {
        if let Err(why) = &r.outcome {
            eprintln!(
                "perfbench: cell {i} ({} on {}) failed: {why}",
                plan.cells[i].mix.label(),
                plan.cells[i].org.label()
            );
        }
    }
    runs
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<32} {:>18} {}", m.name, m.value_text(), m.unit);
    }
    println!(
        "{}",
        report::result_json(correct, attempted, failed, metrics)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let mut expected = Expected::recorded(args.workload, args.seed, plan.cells.len());

    if args.record_digests {
        for (i, r) in run_round(&plan, &Expected::default(), &mut Tracer::new(false), None)
            .iter()
            .enumerate()
        {
            println!(
                "{} {} {i} {:016x}",
                args.workload.name(),
                args.seed,
                r.digest
            );
        }
        return;
    }

    if args.self_test {
        if !expected.is_recorded() {
            eprintln!("perfbench: --self-test needs a seed with recorded digests");
            std::process::exit(2);
        }
        expected.corrupt(0);
        let runs = run_round(&plan, &expected, &mut Tracer::new(false), None);
        let failed: Vec<usize> = (0..runs.len())
            .filter(|&i| runs[i].outcome.is_err())
            .collect();
        println!("self-test: failed cells {failed:?} (want [0])");
        std::process::exit(if failed == [0] { 0 } else { 1 });
    }

    eprintln!(
        "perfbench: {} seed {} — {} cells per round{}",
        args.workload.name(),
        args.seed,
        plan.cells.len(),
        if expected.is_recorded() {
            ", digests recorded"
        } else {
            ", audit check only"
        }
    );
    let probe_before = probe::probe_ns();
    let (runs, metrics, replay_failed) = if args.trace {
        let t = traced_run(&plan, &expected);
        let probe_after = probe::probe_ns();
        println!("host.probe_ns before={probe_before:.4} after={probe_after:.4}");
        if let Some(path) = &args.spans {
            let written = std::fs::File::create(path)
                .map(std::io::BufWriter::new)
                .and_then(|mut f| t.tracer.write_jsonl(&mut f));
            if let Err(e) = written {
                eprintln!("perfbench: writing spans to {path}: {e}");
                std::process::exit(1);
            }
        }
        let metrics = report::per_layer(
            &t.untraced,
            &t.traced,
            &t.replays,
            (probe_before + probe_after) / 2.0,
        );
        let mut runs = t.untraced;
        runs.extend(t.traced);
        (runs, metrics, t.replay_failed)
    } else {
        let rounds = measured_rounds(&plan, &expected, Duration::from_secs(args.seconds));
        let probe_after = probe::probe_ns();
        println!("host.probe_ns before={probe_before:.4} after={probe_after:.4}");
        let metrics = report::end_to_end(&plan, &rounds);
        (rounds.into_iter().flatten().collect(), metrics, 0)
    };
    // Each cell is one operation; a failed replay counts against its cell.
    let attempted = runs.len();
    let failed = runs.iter().filter(|r| r.outcome.is_err()).count() + replay_failed;
    print_result(failed == 0, attempted, failed, &metrics);
}

/// Untraced whole rounds of `plan` until `budget` has passed.
fn measured_rounds(plan: &Plan, expected: &Expected, budget: Duration) -> Vec<Vec<cell::CellRun>> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < budget {
        let round = run_round(plan, expected, &mut Tracer::new(false), None);
        let run_s: f64 = round.iter().map(|r| r.run_s).sum();
        let setup_s: f64 = round.iter().map(cell::CellRun::setup_s).sum();
        eprintln!(
            "perfbench: round {}: {:.0} cycles/s, {:.4} s setup per cell",
            rounds.len() + 1,
            (plan.timed_cycles() * round.len() as u64) as f64 / run_s,
            setup_s / round.len() as f64
        );
        rounds.push(round);
    }
    println!(
        "rounds {} of {} cells in {:.2} s",
        rounds.len(),
        plan.cells.len(),
        start.elapsed().as_secs_f64()
    );
    rounds
}

/// What a traced run measured.
struct Traced {
    /// The round run without spans, for `trace.overhead`.
    untraced: Vec<cell::CellRun>,
    /// The same round with spans and phase-boundary counts.
    traced: Vec<cell::CellRun>,
    /// Each cell's outside-in layer timings, in cell order.
    replays: Vec<replay::Replay>,
    /// Cells whose replay failed.
    replay_failed: usize,
    /// The recorded spans.
    tracer: Tracer,
}

/// One untraced round, one traced round, then every cell's replays.
fn traced_run(plan: &Plan, expected: &Expected) -> Traced {
    let untraced = run_round(plan, expected, &mut Tracer::new(false), None);
    let mut tracer = Tracer::new(true);
    let traced = run_round(plan, expected, &mut tracer, None);
    let replay_span = tracer.open("replay", None, Instant::now());
    let mut replays = Vec::with_capacity(plan.cells.len());
    let mut replay_failed = 0;
    for c in &plan.cells {
        let span = tracer.open("replay.cell", replay_span, Instant::now());
        let r = replay::replay_cell(plan, c, &mut tracer, span).unwrap_or_else(|e| {
            eprintln!("perfbench: replay of {} failed: {e}", c.mix.label());
            replay_failed += 1;
            replay::Replay::default()
        });
        replays.push(r);
        tracer.close(span, Instant::now());
    }
    tracer.close(replay_span, Instant::now());
    Traced {
        untraced,
        traced,
        replays,
        replay_failed,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_round(plan: &Plan, expected: &Expected) -> (Tracer, Vec<cell::CellRun>) {
        let mut tracer = Tracer::new(true);
        let runs = run_round(plan, expected, &mut tracer, None);
        (tracer, runs)
    }

    /// Names listed under `key` in the repository's `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text.find(&format!("\"{key}\"")).expect("key is present");
        let section = &text[start..];
        let end = section.find(']').expect("list is closed");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .map(str::to_string)
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_is_named_with_a_unit_and_listed() {
        for w in Workload::ALL {
            let plan = Plan::tiny(w, 2007);
            let untraced = run_round(&plan, &Expected::default(), &mut Tracer::new(false), None);
            let (_, traced) = traced_round(&plan, &Expected::default());
            let replays: Vec<replay::Replay> = plan
                .cells
                .iter()
                .map(|c| {
                    replay::replay_cell(&plan, c, &mut Tracer::new(false), None)
                        .expect("replay runs")
                })
                .collect();
            let e2e = report::end_to_end(&plan, std::slice::from_ref(&untraced));
            let layers = report::per_layer(&untraced, &traced, &replays, probe::probe_ns());
            for (metrics, key) in [(&e2e, "end_to_end"), (&layers, "per_layer")] {
                for m in metrics.iter() {
                    assert!(valid_name(m.name), "bad metric name {:?}", m.name);
                    assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
                    assert!(m.value.is_finite(), "{} is not finite", m.name);
                }
                let mut printed: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
                let mut want = listed(key);
                printed.sort();
                want.sort();
                assert_eq!(printed, want, "{key} metrics differ from BENCHMARK.json");
                let line = report::result_json(true, 1, 0, metrics);
                for m in metrics.iter() {
                    assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
                }
            }
        }
    }

    #[test]
    fn span_self_times_sum_to_the_cell_span() {
        let plan = Plan::tiny(Workload::TimeSampled, 7);
        let (tracer, runs) = traced_round(&plan, &Expected::default());
        assert!(runs.iter().all(|r| r.outcome.is_ok()));
        let self_times = tracer.self_times();
        let cells: Vec<usize> = (0..tracer.spans().len())
            .filter(|&i| tracer.spans()[i].name == "cell")
            .collect();
        assert_eq!(cells.len(), plan.cells.len());
        for c in cells {
            let sum: u64 = tracer.subtree(c).iter().map(|&i| self_times[i]).sum();
            let whole = tracer.duration(c);
            assert!(
                sum.abs_diff(whole) <= 1_000,
                "self times {sum} ns vs cell span {whole} ns"
            );
            assert!(
                tracer.subtree(c).len() > 5,
                "the cell's phases are recorded"
            );
        }
    }

    #[test]
    fn replays_count_the_same_events_on_every_run() {
        for w in Workload::ALL {
            let plan = Plan::tiny(w, 11);
            let counts =
                |r: replay::Replay| (r.ops, r.cache_accesses, r.l3_accesses, r.l3_writebacks);
            let a = replay::replay_cell(&plan, &plan.cells[0], &mut Tracer::new(false), None)
                .expect("replay runs");
            let b = replay::replay_cell(&plan, &plan.cells[0], &mut Tracer::new(false), None)
                .expect("replay runs");
            assert_eq!(counts(a), counts(b));
            assert!(a.cache_accesses > 0 && a.l3_accesses > 0);
        }
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let plan = Plan::tiny(Workload::MissHeavy, 3);
        let (_, a) = traced_round(&plan, &Expected::default());
        let (_, b) = traced_round(&plan, &Expected::default());
        let counts = |v: &[cell::CellRun]| v.iter().map(|r| r.counts).collect::<Vec<_>>();
        assert_eq!(counts(&a), counts(&b));
        assert!(counts(&a).iter().all(Option::is_some));
    }

    #[test]
    fn a_wrong_digest_fails_exactly_one_cell() {
        let plan = Plan::tiny(Workload::MissHeavy, 2007);
        let first = run_round(&plan, &Expected::default(), &mut Tracer::new(false), None);
        let recorded: String = first
            .iter()
            .enumerate()
            .map(|(i, r)| format!("miss-heavy 2007 {i} {:016x}\n", r.digest))
            .collect();
        let mut expected = Expected::parse(&recorded, Workload::MissHeavy, 2007, plan.cells.len());
        let clean = run_round(&plan, &expected, &mut Tracer::new(false), None);
        assert!(
            clean.iter().all(|r| r.outcome.is_ok()),
            "recorded digests match"
        );
        expected.corrupt(1);
        let runs = run_round(&plan, &expected, &mut Tracer::new(false), None);
        let failed: Vec<usize> = (0..runs.len())
            .filter(|&i| runs[i].outcome.is_err())
            .collect();
        assert_eq!(failed, vec![1]);
    }

    #[test]
    fn the_cell_runner_reproduces_the_experiment_harness() {
        for w in Workload::ALL {
            let plan = Plan::tiny(w, 5);
            let runs = run_round(&plan, &Expected::default(), &mut Tracer::new(false), None);
            for (c, r) in plan.cells.iter().zip(&runs) {
                let want = nuca_core::experiment::run_mix(&plan.machine, c.org, &c.mix, &plan.exp)
                    .expect("run_mix runs");
                assert_eq!(
                    r.digest,
                    check::digest(&want.result),
                    "{} on {}",
                    c.mix.label(),
                    c.org.label()
                );
            }
        }
    }

    #[test]
    fn digests_are_recorded_for_the_default_and_a_held_out_seed() {
        for w in Workload::ALL {
            let cells = Plan::new(w, 2007).cells.len();
            for seed in [2007, check::HELD_OUT_SEED] {
                let e = Expected::recorded(w, seed, cells);
                assert!(
                    (0..cells).all(|i| e.get(i).is_some()),
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
    }
}
