//! In-process layer timing for the perfbench traced run.
//!
//! Each subcommand repeats one input's work `reps` times and prints one
//! JSON object per repetition on stdout. In `traced` mode every public
//! call the CLI would make is timed on its own and the engine counters
//! are collected; in `plain` mode the same calls run with no timer
//! between them and no counters, so `plain` ÷ `traced` is the tracing
//! overhead.
//!
//! ```text
//! perfbench-harness verify <spec> <k> <auto|full|reduced> <reps> <traced|plain>
//! perfbench-harness scan-speedup <spec> <k> <threads> <reps>
//! perfbench-harness sweep <manifest> <journal> <reps>
//! perfbench-harness local <reps> <spec>...
//! perfbench-harness synth <spec> <reps> <traced|plain>
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use selfstab_campaign::{run_campaign, CampaignConfig, Manifest};
use selfstab_core::{DeadlockAnalysis, LivelockAnalysis, Rcg};
use selfstab_global::engine::find_livelock_metered;
use selfstab_global::{fused_scan_metered, CancelToken, EngineConfig, RingInstance, SymmetryMode};
use selfstab_protocol::file::parse_protocol_file;
use selfstab_protocol::Protocol;
use selfstab_synth::{LocalSynthesizer, SynthesisConfig};
use selfstab_telemetry::{EngineCounters, SynthesisCounters};
use serde_json::Value;

type Error = Box<dyn std::error::Error>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), Error> {
    let arg = |i: usize| -> Result<&str, Error> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument {i}; see the module docs for usage").into())
    };
    let num = |i: usize| -> Result<usize, Error> { Ok(arg(i)?.parse()?) };
    let traced = |i: usize| -> Result<bool, Error> {
        match arg(i)? {
            "traced" => Ok(true),
            "plain" => Ok(false),
            other => Err(format!("expected `traced` or `plain`, got `{other}`").into()),
        }
    };
    match arg(0)? {
        "verify" => verify(
            Path::new(arg(1)?),
            num(2)?,
            arg(3)?.parse()?,
            num(4)?,
            traced(5)?,
        ),
        "scan-speedup" => scan_speedup(Path::new(arg(1)?), num(2)?, num(3)?, num(4)?),
        "sweep" => sweep(Path::new(arg(1)?), Path::new(arg(2)?), num(3)?),
        "local" => local(num(1)?, &args[2..]),
        "synth" => synth(Path::new(arg(1)?), num(2)?, traced(3)?),
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

fn micros(start: Instant) -> u128 {
    start.elapsed().as_micros()
}

fn parse(path: &Path) -> Result<(Protocol, u128), Error> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let start = Instant::now();
    let protocol = parse_protocol_file(&source).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((protocol, micros(start)))
}

/// The `check <spec> --k K` call sequence: parse, instantiate, fused
/// scan, livelock search.
fn verify(
    path: &Path,
    k: usize,
    symmetry: SymmetryMode,
    reps: usize,
    traced: bool,
) -> Result<(), Error> {
    let config = EngineConfig::with_threads(1).with_symmetry(symmetry);
    let cancel = CancelToken::new();
    for _ in 0..reps {
        if !traced {
            let start = Instant::now();
            let (protocol, _) = parse(path)?;
            let ring = RingInstance::symmetric(&protocol, k)?;
            let scan = fused_scan_metered(&ring, &config, &cancel, None)?;
            let livelock = find_livelock_metered(&ring, &scan, &cancel, None)?;
            std::hint::black_box(livelock);
            println!("{{\"total_us\":{}}}", micros(start));
            continue;
        }
        let counters = EngineCounters::new();
        let start = Instant::now();
        let (protocol, parse_us) = parse(path)?;
        let t = Instant::now();
        let ring = RingInstance::symmetric(&protocol, k)?;
        let instantiate_us = micros(t);
        let t = Instant::now();
        let scan = fused_scan_metered(&ring, &config, &cancel, Some(&counters))?;
        let scan_us = micros(t);
        let t = Instant::now();
        let livelock = find_livelock_metered(&ring, &scan, &cancel, Some(&counters))?;
        let livelock_us = micros(t);
        let total_us = micros(start);
        let snap = counters.snapshot();
        println!(
            "{{\"total_us\":{total_us},\"parse_us\":{parse_us},\"instantiate_us\":{instantiate_us},\
             \"scan_us\":{scan_us},\"livelock_us\":{livelock_us},\"states_visited\":{},\
             \"orbits_visited\":{},\"dfs_steps\":{},\"livelock\":{}}}",
            snap.states_visited,
            snap.orbits_visited,
            snap.dfs_steps,
            livelock.is_some()
        );
    }
    Ok(())
}

/// Full-mode fused scan at one thread and at `threads` threads,
/// alternating, so both sides see the same host conditions.
fn scan_speedup(path: &Path, k: usize, threads: usize, reps: usize) -> Result<(), Error> {
    let (protocol, _) = parse(path)?;
    let ring = RingInstance::symmetric(&protocol, k)?;
    let cancel = CancelToken::new();
    let time_scan = |threads: usize| -> Result<u128, Error> {
        let config = EngineConfig::with_threads(threads).with_symmetry(SymmetryMode::Full);
        let start = Instant::now();
        std::hint::black_box(fused_scan_metered(&ring, &config, &cancel, None)?);
        Ok(micros(start))
    };
    for _ in 0..reps {
        let one_us = time_scan(1)?;
        let many_us = time_scan(threads)?;
        println!("{{\"one_us\":{one_us},\"many_us\":{many_us},\"threads\":{threads}}}");
    }
    Ok(())
}

/// `sweep` with the journal on and off, alternating; per-job times come
/// from the campaign's own telemetry.
fn sweep(manifest_path: &Path, journal: &Path, reps: usize) -> Result<(), Error> {
    let manifest = Manifest::from_file(manifest_path)?;
    for _ in 0..reps {
        for journal_path in [Some(journal.to_path_buf()), None::<PathBuf>] {
            let journaled = journal_path.is_some();
            let config = CampaignConfig {
                journal_path,
                telemetry: true,
                ..CampaignConfig::default()
            };
            let start = Instant::now();
            let outcome = run_campaign(&manifest, &config)?;
            let sweep_us = micros(start);
            let mut job_us: Vec<u64> = outcome
                .metrics
                .as_ref()
                .and_then(|m| m["jobs"].as_array())
                .map(|jobs| {
                    jobs.iter()
                        .map(|job| match &job["phases_us"] {
                            Value::Object(phases) => {
                                phases.values().filter_map(Value::as_u64).sum()
                            }
                            _ => 0,
                        })
                        .collect()
                })
                .unwrap_or_default();
            job_us.sort_unstable();
            let job_p50_us = job_us.get(job_us.len() / 2).copied().unwrap_or(0);
            let journal_bytes = if journaled {
                std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0)
            } else {
                0
            };
            println!(
                "{{\"journal\":{journaled},\"sweep_us\":{sweep_us},\"job_p50_us\":{job_p50_us},\
                 \"jobs\":{},\"journal_bytes\":{journal_bytes}}}",
                job_us.len()
            );
        }
    }
    Ok(())
}

/// The local (any-K) analyses a sweep job runs once per spec.
fn local(reps: usize, specs: &[String]) -> Result<(), Error> {
    for spec in specs {
        let (protocol, _) = parse(Path::new(spec))?;
        for _ in 0..reps {
            let start = Instant::now();
            std::hint::black_box(DeadlockAnalysis::analyze(&protocol));
            let deadlock_us = micros(start);
            let t = Instant::now();
            std::hint::black_box(LivelockAnalysis::analyze(&protocol));
            let livelock_us = micros(t);
            println!(
                "{{\"spec\":\"{}\",\"deadlock_us\":{deadlock_us},\"livelock_us\":{livelock_us}}}",
                spec.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
    }
    Ok(())
}

/// The `synthesize <spec>` call sequence (parse, `synthesize_metered`)
/// plus its two leading layers timed on their own, and the deadlock
/// analysis with witness enumeration.
fn synth(path: &Path, reps: usize, traced: bool) -> Result<(), Error> {
    let synthesizer = LocalSynthesizer::new(SynthesisConfig::default());
    let cancel = CancelToken::new();
    for _ in 0..reps {
        if !traced {
            let start = Instant::now();
            let (protocol, _) = parse(path)?;
            std::hint::black_box(synthesizer.synthesize_metered(&protocol, &cancel, None, None)?);
            println!("{{\"total_us\":{}}}", micros(start));
            continue;
        }
        let counters = SynthesisCounters::new();
        let start = Instant::now();
        let (protocol, parse_us) = parse(path)?;
        let t = Instant::now();
        let outcome = synthesizer.synthesize_metered(&protocol, &cancel, Some(&counters), None)?;
        let synthesize_us = micros(t);
        let total_us = micros(start);

        let t = Instant::now();
        let rcg = Rcg::build(&protocol);
        let rcg_us = micros(t);
        let t = Instant::now();
        let sets = synthesizer.resolve_sets(&protocol, &rcg);
        let resolve_sets_us = micros(t);
        let t = Instant::now();
        let deadlock = DeadlockAnalysis::analyze(&protocol);
        let deadlock_us = micros(t);

        let snap = counters.snapshot();
        println!(
            "{{\"total_us\":{total_us},\"parse_us\":{parse_us},\"synthesize_us\":{synthesize_us},\
             \"rcg_us\":{rcg_us},\"resolve_sets_us\":{resolve_sets_us},\"resolve_sets\":{},\
             \"deadlock_us\":{deadlock_us},\"witnesses_truncated\":{},\
             \"resolve_sets_examined\":{},\"combinations_tried\":{},\"rejected_by_trail\":{},\
             \"cones_cut\":{},\"candidates_skipped\":{},\"solutions_found\":{},\
             \"success\":{},\"truncated\":{}}}",
            sets.len(),
            deadlock.witnesses_truncated(),
            snap.resolve_sets_examined,
            snap.combinations_tried,
            snap.rejected_by_trail,
            snap.cones_cut,
            snap.candidates_skipped,
            snap.solutions_found,
            outcome.is_success(),
            outcome.truncated()
        );
    }
    Ok(())
}
