//! `selfstab dot <file.stab> [--ltg] [--deadlocks] [-o FILE]` — Graphviz
//! export of the RCG or LTG.

use selfstab_core::{ltg::Ltg, rcg::Rcg};
use selfstab_telemetry::logger;

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "ltg", "restrict out")?;
    let protocol = load_protocol(&args)?;

    let dot = if args.flag("ltg") {
        Ltg::build(&protocol).to_dot(&protocol, protocol.name())
    } else {
        let rcg = Rcg::build(&protocol);
        match args.get("restrict") {
            Some("deadlocks") => {
                let deadlocks = protocol.local_deadlocks();
                rcg.to_dot(&protocol, protocol.name(), Some(deadlocks.as_bitset()))
            }
            Some(other) => {
                return Err(format!("unknown --restrict `{other}` (expected `deadlocks`)").into())
            }
            None => rcg.to_dot(&protocol, protocol.name(), None),
        }
    };

    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &dot)?;
            logger::info(format!("wrote {path}"));
        }
        None => print!("{dot}"),
    }
    Ok(true)
}
