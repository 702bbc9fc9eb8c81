//! `selfstab simulate <file.stab> --k N [--trials T] [--steps S] [--seed X]
//! [--json]` — random-daemon convergence statistics.

use selfstab_global::{RingInstance, Scheduler, Simulator};
use serde_json::json;

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "json", "k trials steps seed scheduler")?;
    let protocol = load_protocol(&args)?;
    let k = args.require_usize("k")?;
    let trials = args.get_usize("trials", 1000)?;
    let max_steps = args.get_usize("steps", 1_000_000)?;
    let seed = args.get_u64("seed", 42)?;
    let scheduler = match args.get("scheduler").unwrap_or("random") {
        "random" => Scheduler::Random,
        "roundrobin" => Scheduler::RoundRobin,
        other => return Err(format!("unknown scheduler `{other}` (random|roundrobin)").into()),
    };

    let ring = RingInstance::symmetric(&protocol, k)?;
    let mut sim = Simulator::new(&ring, seed).with_scheduler(scheduler);
    let stats = sim.convergence_stats(trials, max_steps);
    let worst_case = selfstab_global::faults::worst_case_recovery(&ring);

    if args.flag("json") {
        let doc = json!({
            "protocol": protocol.name(),
            "ring_size": k,
            "trials": trials,
            "seed": seed,
            "scheduler": format!("{scheduler:?}"),
            "step_budget": max_steps,
            "converged": stats.converged,
            "failed": stats.failed,
            "mean_steps": stats.mean_steps,
            "max_steps": stats.max_steps,
            "worst_case_recovery": worst_case,
        });
        println!("{}", serde_json::to_string_pretty(&doc)?);
        return Ok(true);
    }

    println!("K={k}, {trials} random starts, {scheduler:?} daemon, budget {max_steps} steps:");
    println!(
        "  converged: {} ({:.1}%)   failed: {}",
        stats.converged,
        100.0 * stats.converged as f64 / trials.max(1) as f64,
        stats.failed
    );
    if stats.converged > 0 {
        println!(
            "  steps to convergence: mean {:.1}, max {}",
            stats.mean_steps, stats.max_steps
        );
    }
    if let Some(wc) = worst_case {
        println!("  worst-case (adversarial daemon) recovery bound: {wc} steps");
    } else {
        println!("  no adversarial recovery bound (deadlock or livelock outside I)");
    }
    Ok(true)
}
