//! `selfstab serve [--port P] [--host H] [--threads T] [--cache-mb M]
//! [--journal PATH] [--fsync always|batch] [--cache-snapshot PATH]
//! [--retries N] [--backoff-ms MS] [--max-pending N]
//! [--max-connections N] [--max-rss-mb M] [--trace PATH]
//! [--registry PATH] [--quiet|--verbose]` — the long-running HTTP
//! verification service.
//!
//! Binds the [`selfstab_serve`] server, prints the listening address to
//! stdout (so scripts and CI can discover an ephemeral `--port 0`), and
//! runs until SIGINT or SIGTERM. Either signal starts a graceful drain —
//! stop accepting, cancel in-flight jobs cooperatively, flush responses —
//! and the process exits 130, mirroring `sweep`'s interrupt convention.
//!
//! With `--journal`, every accepted job and terminal result is persisted
//! through a CRC-framed torn-write-safe journal: restart the process
//! with the same path after any crash (even `SIGKILL`) and completed job
//! ids resolve to the same bytes while interrupted jobs re-enqueue and
//! finish. `--cache-snapshot` does the same for the result cache, so the
//! restarted server answers repeat traffic warm. `--max-pending`,
//! `--max-connections`, and `--max-rss-mb` bound acceptance — overload
//! is shed with `429`/`503` + `Retry-After` instead of queued. The
//! hidden `--chaos SEED` flag arms the deterministic service-fault
//! injector (drill/test use only).
//!
//! `--trace PATH` writes a server-wide Chrome-trace file at drain with
//! every request's span lanes interleaved (load it in Perfetto);
//! `--registry PATH` appends one canonical JSONL row per computed job to
//! the persistent results registry (query with `selfstab registry`).
//!
//! Bind failures (busy port, bad interface), unreadable journals, and
//! invalid flags are ordinary usage errors: a diagnostic on stderr and
//! exit 1, never a panic.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use selfstab_campaign::FsyncPolicy;
use selfstab_serve::{PendingCaps, ServeConfig, Server};
use selfstab_telemetry::logger;

use crate::args::Args;
use crate::signal;

/// `serve` options that take a value (`--chaos` is hidden: drills and tests only).
const OPTIONS: &str = "port host threads cache-mb journal cache-snapshot fsync retries \
    backoff-ms max-pending max-connections max-rss-mb chaos trace registry";

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "verbose quiet", OPTIONS)?;
    logger::set_level_from_flags(args.flag("verbose"), args.flag("quiet"), false);
    let port_raw = args.get_usize("port", 7878)?;
    let port = u16::try_from(port_raw)
        .map_err(|_| format!("option --port expects 0..=65535, got `{port_raw}`"))?;
    let threads = args.get_usize("threads", 2)?;
    if threads == 0 {
        return Err("option --threads expects a positive number".into());
    }
    let cache_mb = args.get_usize("cache-mb", 64)?;
    let fsync = match args.get("fsync") {
        None | Some("batch") => FsyncPolicy::Batch,
        Some("always") => FsyncPolicy::Always,
        Some(other) => {
            return Err(format!("option --fsync expects `always` or `batch`, got `{other}`").into())
        }
    };
    let defaults = ServeConfig::default();
    let caps = match args.get("max-pending") {
        None => PendingCaps::default(),
        Some(_) => {
            let base = args.get_usize("max-pending", 0)?;
            if base == 0 {
                return Err("option --max-pending expects a positive number".into());
            }
            PendingCaps::from_base(base)
        }
    };
    let max_connections = args.get_usize("max-connections", defaults.max_connections)?;
    if max_connections == 0 {
        return Err("option --max-connections expects a positive number".into());
    }
    let config = ServeConfig {
        host: args.get("host").unwrap_or("127.0.0.1").to_owned(),
        port,
        threads,
        cache_bytes: cache_mb.saturating_mul(1024 * 1024),
        journal: args.get("journal").map(PathBuf::from),
        cache_snapshot: args.get("cache-snapshot").map(PathBuf::from),
        fsync,
        retries: u32::try_from(args.get_usize("retries", defaults.retries as usize)?)
            .map_err(|_| "option --retries is out of range")?,
        backoff: Duration::from_millis(
            args.get_u64("backoff-ms", defaults.backoff.as_millis() as u64)?,
        ),
        caps,
        max_connections,
        max_rss_bytes: match args.get("max-rss-mb") {
            None => None,
            Some(_) => {
                let mb = args.get_u64("max-rss-mb", 0)?;
                if mb == 0 {
                    return Err("option --max-rss-mb expects a positive number".into());
                }
                Some(mb.saturating_mul(1024 * 1024))
            }
        },
        idle_timeout: defaults.idle_timeout,
        request_deadline: defaults.request_deadline,
        // Hidden: deterministic service-fault injection for drills.
        chaos: match args.get("chaos") {
            None => None,
            Some(_) => Some(args.get_u64("chaos", 0)?),
        },
        trace: args.get("trace").map(PathBuf::from),
        results_registry: args.get("registry").map(PathBuf::from),
    };

    let server = Server::bind(&config)?;
    let addr = server.local_addr()?;
    // Flushed eagerly: supervisors and tests parse this line to find the
    // resolved (possibly ephemeral) port.
    println!("listening on http://{addr}");
    std::io::stdout().flush()?;

    signal::hook_drain(&server.state().drain_token());
    server.run()?;
    logger::info("drained; exiting");
    std::process::exit(i32::from(signal::EXIT_SIGINT));
}
