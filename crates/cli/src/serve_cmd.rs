//! `namd-rs serve` — run the simulation service in the foreground.
//!
//! Binds a Unix or TCP listener, spins up a [`serve::Scheduler`] over a
//! bounded PE pool, and blocks until a protocol `Shutdown` request (or
//! Ctrl-C, which kills the process; jobs are in-memory only).

use serve::sched::{Scheduler, SchedulerConfig};
use serve::server::{start, Endpoint};

const USAGE: &str = "\
usage: namd-rs serve [options]

options:
  --listen <ep>        endpoint: unix:<path> or tcp:<host>:<port>
                       (default tcp:127.0.0.1:7847; port 0 picks a free port)
  --pool <n>           engine-pool size in PEs (default 8)
  --slice <n>          preemption slice in steps; rounded up to each job's
                       migrate boundary (default 50)
  --max-recoveries <n> consecutive in-slice crash recoveries before a job
                       fails (default 3)
  --backoff-ms <n>     base recovery backoff, doubled per retry (default 10)
  --always-park        park at every slice boundary even when the queue is
                       empty (deterministic preemption; mainly for testing)

Clients speak the framed wire protocol in serve::proto.
";

/// Entry point for `namd-rs serve`. Returns a process exit code.
pub fn cmd_serve(args: &[String]) -> i32 {
    let mut endpoint = "tcp:127.0.0.1:7847".to_string();
    let mut cfg = SchedulerConfig::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("serve: {what} requires a value");
            }
            v
        };
        match arg.as_str() {
            "--listen" => match take("--listen") {
                Some(v) => endpoint = v,
                None => return 2,
            },
            "--pool" => match take("--pool").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.pool_pes = v,
                None => return 2,
            },
            "--slice" => match take("--slice").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.slice_steps = v,
                None => return 2,
            },
            "--max-recoveries" => match take("--max-recoveries").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_recoveries = v,
                None => return 2,
            },
            "--backoff-ms" => match take("--backoff-ms").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.recovery_backoff_ms = v,
                None => return 2,
            },
            "--always-park" => cfg.always_park = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("serve: unknown option `{other}`\n\n{USAGE}");
                return 2;
            }
        }
    }

    if cfg.pool_pes == 0 || cfg.pool_pes > 64 {
        eprintln!("serve: --pool must be in 1..=64 (got {})", cfg.pool_pes);
        return 2;
    }
    if cfg.slice_steps == 0 {
        eprintln!("serve: --slice must be >= 1");
        return 2;
    }

    let ep: Endpoint = match endpoint.parse() {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("serve: bad --listen endpoint: {e}");
            return 2;
        }
    };

    let sched = Scheduler::new(cfg.clone());
    let handle = match start(&ep, sched) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: failed to bind: {e}");
            return 1;
        }
    };
    println!(
        "namd-rs serve: listening on {} (pool {} PEs, slice {} steps)",
        handle.endpoint, cfg.pool_pes, cfg.slice_steps
    );
    handle.join();
    println!("namd-rs serve: shut down");
    0
}
