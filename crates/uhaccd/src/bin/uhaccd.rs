//! `uhaccd` — serve the compile-and-run API.
//!
//! ```console
//! $ uhaccd --port 8090 --workers 4          # serve (foreground)
//! ```

use std::net::TcpListener;
use std::sync::Arc;
use uhacc_core::flags::{host_threads_from_env, parse_count};
use uhaccd::{service, DaemonConfig, WorkerPool};

fn usage() -> ! {
    eprintln!(
        "usage: uhaccd [options]        serve the API (foreground)\n\
         \n\
         options:\n\
           --port P            TCP port (0 = ephemeral; default 8090)\n\
           --host H            bind address (default 127.0.0.1)\n\
           --workers N         device-worker threads = max concurrent\n\
                               sessions (default 4)\n\
           --cache-cap N       program-cache capacity (default 64; each\n\
                               program keeps up to {answers} answers);\n\
                               region-artifact cache gets 4x this\n\
           --slow-ms N         log a structured JSON line on stderr for\n\
                               any request slower than N ms\n\
           --virtual-clock     deterministic observability clock (also\n\
                               honoured via UHOBS_VIRTUAL_CLOCK=1)\n\
           -h, --help          this message",
        answers = service::ANSWERS_PER_PROGRAM
    );
    std::process::exit(2);
}

fn flag_err(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

struct Args {
    host: String,
    port: u16,
    workers: usize,
    cache_cap: usize,
    virtual_clock: bool,
    slow_ms: Option<u64>,
}

fn parse_args() -> Args {
    if let Err(e) = host_threads_from_env() {
        flag_err(e);
    }
    let mut args = Args {
        host: "127.0.0.1".into(),
        port: 8090,
        workers: 4,
        cache_cap: 64,
        virtual_clock: uhobs::clock::env_wants_virtual(),
        slow_ms: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let need_val = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i)
            .cloned()
            .unwrap_or_else(|| flag_err(format!("{flag} requires a value")))
    };
    let count =
        |flag: &str, v: &str| -> u64 { parse_count(flag, v).unwrap_or_else(|e| flag_err(e)) };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => usage(),
            "--port" => {
                i += 1;
                let v = need_val(&argv, i, "--port");
                let p = count("--port", &v);
                if p > u16::MAX as u64 {
                    flag_err(format!("invalid value for --port: {p} exceeds 65535"));
                }
                args.port = p as u16;
            }
            "--host" => {
                i += 1;
                args.host = need_val(&argv, i, "--host");
            }
            "--workers" => {
                i += 1;
                let v = need_val(&argv, i, "--workers");
                args.workers = count("--workers", &v).max(1) as usize;
            }
            "--cache-cap" => {
                i += 1;
                let v = need_val(&argv, i, "--cache-cap");
                args.cache_cap = count("--cache-cap", &v).max(1) as usize;
            }
            "--virtual-clock" => args.virtual_clock = true,
            "--slow-ms" => {
                i += 1;
                let v = need_val(&argv, i, "--slow-ms");
                args.slow_ms = Some(count("--slow-ms", &v));
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn daemon_config(args: &Args) -> DaemonConfig {
    DaemonConfig {
        workers: args.workers,
        program_cache_cap: args.cache_cap,
        region_cache_cap: args.cache_cap * 4,
        virtual_clock: args.virtual_clock,
        slow_ms: args.slow_ms,
    }
}

fn main() {
    let args = parse_args();

    let bind = format!("{}:{}", args.host, args.port);
    let listener = TcpListener::bind(&bind).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {bind}: {e}");
        std::process::exit(1);
    });
    let local = listener.local_addr().expect("local addr");
    let cfg = daemon_config(&args);
    eprintln!(
        "uhaccd: serving on {local} ({} workers, program cache {}, region cache {})",
        cfg.workers, cfg.program_cache_cap, cfg.region_cache_cap
    );
    let daemon = uhaccd::Daemon::new(cfg.clone());
    let pool = Arc::new(WorkerPool::with_obs(
        cfg.workers,
        Arc::clone(&daemon.obs().clock),
        Some(daemon.obs().queue_wait.clone()),
    ));
    service::serve(daemon, listener, pool);
}
