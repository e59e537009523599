//! The long-running commands — `serve`, `loadgen` and `watch` — and the
//! signal loop `serve` and `watch` run until SIGTERM/ctrl-c.

use std::fmt::Write as _;
use std::time::Duration;

use gks_index::{is_manifest_file, maintain, MaintenanceOutcome, ShardManifest};
use gks_server::catalog::{IndexSpec, DEFAULT_INDEX_NAME};
use gks_server::error::ServeError;
use gks_server::{loadgen, signal, ServeConfig};

use crate::{millis, unknown_flag, value, CliError};

/// Clears stale signal flags (e.g. from a prior run in the same test
/// process), hooks SIGTERM/ctrl-c so `kill` stops the command cleanly and
/// SIGHUP so it sets the reload flag, and prints `banner`. Then calls
/// `tick` every `every` until shutdown is requested, sleeping in short
/// slices so SIGTERM stays prompt.
fn until_signalled(tag: &str, banner: &str, every: Duration, mut tick: impl FnMut()) {
    signal::request_shutdown(false);
    signal::request_reload(false);
    let have_signals = signal::install_shutdown_handler();
    print!("{banner}");
    if !have_signals {
        println!("{tag}: no signal support on this platform; stop by killing the process");
    }
    let _ = std::io::Write::flush(&mut std::io::stdout());
    while !signal::shutdown_requested() {
        tick();
        let mut slept = Duration::ZERO;
        while slept < every && !signal::shutdown_requested() {
            let slice = (every - slept).min(Duration::from_millis(50));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Parses a `--trace-sample` spelling: `N` or `1/N`, N ≥ 1.
fn parse_trace_sample(value: &str) -> Option<u64> {
    let n = value.strip_prefix("1/").unwrap_or(value);
    n.parse::<u64>().ok().filter(|&n| n >= 1)
}

/// Builds the catalog spec for one index source spelling:
/// `p1,p2,…` registers the comma-separated paths as shards, a path whose
/// file starts with the shard-manifest header loads the manifest, and
/// anything else is a plain single-index path.
fn index_spec_for(name: &str, spec: &str) -> Result<IndexSpec, CliError> {
    if spec.contains(',') {
        return Ok(IndexSpec::with_shard_paths(name, spec.split(',')));
    }
    if is_manifest_file(spec) {
        return IndexSpec::with_manifest(name, spec)
            .map_err(|e| CliError::runtime(format!("cannot load shard manifest {spec:?}: {e}")));
    }
    Ok(IndexSpec::with_source(name, spec))
}

/// `gks serve`: parses the flags into a [`ServeConfig`] and leaves every
/// rule on their values to [`gks_server::serve_catalog`]; a configuration
/// it refuses is a usage error.
pub(crate) fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    const SERVE_USAGE: &str = "usage: gks serve [<index.gksix>] [--index NAME=PATH[,PATH...]]... \
        [--default-index NAME] [--addr HOST:PORT] [--workers N] [--queue N] \
        [--deadline-ms N] [--cache-mb N] [--query-log FILE] \
        [--slow-log FILE] [--slow-ms N] [--trace-sample N|1/N] \
        [--no-trace] [--watch] [--watch-interval-ms N] [--compact-threshold N] \
        [--max-connections N] [--idle-timeout-ms N]";
    // The positional path (registered as the "default" index) is optional
    // when --index flags supply the catalog.
    let (positional, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (Some(first), rest),
        _ => (None, args),
    };
    let mut config = ServeConfig::default();
    let mut specs: Vec<IndexSpec> = Vec::new();
    if let Some(path) = positional {
        specs.push(index_spec_for(DEFAULT_INDEX_NAME, path)?);
    }
    let mut default_index: Option<String> = None;
    let mut watch = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--watch" => watch = true,
            "--watch-interval-ms" => {
                config.watch_interval = Some(millis(&mut it, "--watch-interval-ms")?);
            }
            "--compact-threshold" => {
                config.compact_threshold = Some(value(&mut it, "--compact-threshold")?);
            }
            "--index" => {
                let v: String = value(&mut it, "--index")?;
                let Some((name, path)) = v.split_once('=') else {
                    return Err(CliError::usage(format!("--index wants NAME=PATH, got {v:?}")));
                };
                specs.push(index_spec_for(name, path)?);
            }
            "--default-index" => default_index = Some(value(&mut it, "--default-index")?),
            "--trace-sample" => {
                let v: String = value(&mut it, "--trace-sample")?;
                config.trace_sample = parse_trace_sample(&v).ok_or_else(|| {
                    CliError::usage(format!("bad --trace-sample value {v:?} (want N or 1/N)"))
                })?;
            }
            "--addr" => config.addr = value(&mut it, "--addr")?,
            "--workers" => config.workers = value(&mut it, "--workers")?,
            "--queue" => config.queue_depth = value(&mut it, "--queue")?,
            "--deadline-ms" => config.deadline = millis(&mut it, "--deadline-ms")?,
            "--cache-mb" => {
                let mb: usize = value(&mut it, "--cache-mb")?;
                config.cache_bytes = mb.checked_mul(1024 * 1024).ok_or_else(|| {
                    CliError::usage(format!("--cache-mb {mb} overflows the byte count"))
                })?;
            }
            "--query-log" => config.query_log = Some(value(&mut it, "--query-log")?),
            "--slow-log" => config.slow_log = Some(value(&mut it, "--slow-log")?),
            "--slow-ms" => config.slow_threshold = millis(&mut it, "--slow-ms")?,
            "--no-trace" => config.trace = false,
            "--max-connections" => config.max_connections = value(&mut it, "--max-connections")?,
            "--idle-timeout-ms" => config.idle_timeout = millis(&mut it, "--idle-timeout-ms")?,
            other => return Err(unknown_flag("serve", other)),
        }
    }
    if specs.is_empty() {
        return Err(CliError::usage(SERVE_USAGE));
    }
    // Bare `--watch` picks the default cadence; an explicit interval
    // implies watching.
    if watch && config.watch_interval.is_none() {
        config.watch_interval = Some(Duration::from_millis(2000));
    }
    let index_names: Vec<String> = specs.iter().map(|s| s.name().to_string()).collect();
    let server = gks_server::serve_catalog(specs, default_index.as_deref(), config.clone())
        .map_err(|e| {
            let message = format!("cannot start server: {e}");
            match e {
                ServeError::BadConfig(_) => CliError::usage(message),
                _ => CliError::runtime(message),
            }
        })?;
    let mut banner = String::new();
    let _ = writeln!(
        banner,
        "gks-serve: listening on {} ({} worker(s), queue {}, deadline {} ms, cache {} MiB)",
        server.local_addr(),
        config.workers,
        config.queue_depth,
        config.deadline.as_millis(),
        config.cache_bytes / (1024 * 1024)
    );
    let _ = writeln!(
        banner,
        "gks-serve: catalog [{}], default index {:?}",
        index_names.join(", "),
        server.state().catalog().default_index().name()
    );
    if let Some(interval) = config.watch_interval {
        let _ = writeln!(
            banner,
            "gks-serve: watching manifest corpus directories every {} ms{}",
            interval.as_millis(),
            config
                .compact_threshold
                .map(|t| format!(", compacting at {t} delta shard(s)"))
                .unwrap_or_default()
        );
    }
    if let Some(path) = &config.query_log {
        let _ = writeln!(banner, "gks-serve: query log -> {}", path.display());
    }
    if let Some(path) = &config.slow_log {
        let _ = writeln!(
            banner,
            "gks-serve: slow log -> {} (threshold {} ms)",
            path.display(),
            config.slow_threshold.as_millis()
        );
    }
    until_signalled("gks-serve", &banner, Duration::from_millis(50), || {
        if signal::take_reload_request() {
            // SIGHUP: hot-swap the default index off the signal path (the
            // handler only sets a flag; this loop does the actual work).
            match server.state().reload_default() {
                Ok((before, after)) => println!(
                    "gks-serve: reloaded default index (identity {before:#x} -> {after:#x})"
                ),
                Err(e) => println!("gks-serve: reload failed: {e}"),
            }
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
    });
    let report = server.shutdown();
    Ok(format!(
        "gks-serve: drained — accepted {} connection(s), served {}, rejected {}\n",
        report.accepted, report.served, report.rejected
    ))
}

pub(crate) fn cmd_loadgen(args: &[String]) -> Result<String, CliError> {
    const LOADGEN_USAGE: &str = "usage: gks loadgen <host:port> <workload.txt> \
        [--clients N] [--requests N] [--zipf S] [--seed N] [--timeout-ms N] \
        [--open-loop --rate QPS] [--index NAME[=WEIGHT]]... [--explain] \
        [--keep-alive] [--connections N] [--slow-clients N]";
    let [addr_raw, workload_path, rest @ ..] = args else {
        return Err(CliError::usage(LOADGEN_USAGE));
    };
    let addr = {
        use std::net::ToSocketAddrs as _;
        addr_raw
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(|| CliError::usage(format!("bad address {addr_raw:?}")))?
    };
    let mut config = loadgen::LoadgenConfig { addr, ..loadgen::LoadgenConfig::default() };
    let mut open_loop = false;
    let mut rate_qps: Option<f64> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => config.clients = value(&mut it, "--clients")?,
            "--requests" => config.requests_per_client = value(&mut it, "--requests")?,
            "--zipf" => config.zipf_s = value(&mut it, "--zipf")?,
            "--seed" => config.seed = value(&mut it, "--seed")?,
            "--timeout-ms" => config.timeout = millis(&mut it, "--timeout-ms")?,
            "--open-loop" => open_loop = true,
            "--explain" => config.explain = true,
            "--keep-alive" => config.keep_alive = true,
            "--connections" => config.connections = value(&mut it, "--connections")?,
            "--slow-clients" => config.slow_clients = value(&mut it, "--slow-clients")?,
            "--rate" => rate_qps = Some(value(&mut it, "--rate")?),
            "--index" => {
                let v: String = value(&mut it, "--index")?;
                let target = loadgen::parse_index_target(&v).ok_or_else(|| {
                    CliError::usage(format!("bad --index value {v:?} (want NAME or NAME=WEIGHT)"))
                })?;
                config.targets.push(target);
            }
            other => return Err(unknown_flag("loadgen", other)),
        }
    }
    config.pacing = match (open_loop, rate_qps) {
        (true, Some(rate_qps)) if rate_qps > 0.0 => loadgen::Pacing::Open { rate_qps },
        (true, Some(rate_qps)) => {
            return Err(CliError::usage(format!("--rate must be > 0, got {rate_qps}")));
        }
        (true, None) => return Err(CliError::usage("--open-loop needs --rate QPS")),
        (false, Some(_)) => {
            return Err(CliError::usage("--rate only applies with --open-loop"));
        }
        (false, None) => loadgen::Pacing::Closed,
    };
    let text = std::fs::read_to_string(workload_path)
        .map_err(|e| CliError::runtime(format!("cannot read workload {workload_path:?}: {e}")))?;
    let workload = loadgen::parse_workload(&text);
    if workload.is_empty() {
        return Err(CliError::runtime(format!("workload {workload_path:?} has no queries")));
    }
    let report = loadgen::run(&config, &workload);
    Ok(report.render())
}

/// Renders one [`maintain`] tick as `gks watch` lines, one per step that
/// did or failed something. Failures are not fatal: a mid-mutation scan or
/// a transient I/O error is retried on the next tick, and the manifest on
/// disk is untouched by a failed step.
fn render_tick(outcome: &MaintenanceOutcome, out: &mut String) {
    let _ = match &outcome.commit {
        Ok(None) => Ok(()),
        Ok(Some(s)) => writeln!(
            out,
            "committed epoch {}: +{} added, ~{} changed, -{} deleted",
            s.epoch, s.added, s.changed, s.deleted
        ),
        Err(e) => writeln!(out, "delta commit failed (will retry): {e}"),
    };
    let _ = match &outcome.compaction {
        Ok(None) => Ok(()),
        Ok(Some(s)) => writeln!(
            out,
            "compacted to epoch {}: {} base shard(s), {} document(s), {} old file(s) removed",
            s.epoch, s.base_shards, s.docs, s.removed_files
        ),
        Err(e) => writeln!(out, "compaction failed (will retry): {e}"),
    };
}

pub(crate) fn cmd_watch(args: &[String]) -> Result<String, CliError> {
    const WATCH_USAGE: &str =
        "usage: gks watch <manifest> [--interval-ms N] [--compact-threshold N] [--once]";
    let mut interval = Duration::from_millis(2000);
    let mut threshold: Option<u64> = None;
    let mut once = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => {
                interval = millis(&mut it, "--interval-ms")?;
                if interval.is_zero() {
                    return Err(CliError::usage("--interval-ms must be >= 1"));
                }
            }
            "--compact-threshold" => {
                let n = value(&mut it, "--compact-threshold")?;
                if n == 0 {
                    return Err(CliError::usage("--compact-threshold must be >= 1"));
                }
                threshold = Some(n);
            }
            "--once" => once = true,
            other if other.starts_with("--") => return Err(unknown_flag("watch", other)),
            _ => positional.push(arg),
        }
    }
    let [manifest_arg] = positional.as_slice() else {
        return Err(CliError::usage(WATCH_USAGE));
    };
    let manifest_path = std::path::PathBuf::from(manifest_arg.as_str());
    // Fail fast on a path that is not an updatable manifest at all.
    let manifest = ShardManifest::load(&manifest_path).map_err(|e| {
        CliError::runtime(format!("cannot load shard manifest {manifest_arg:?}: {e}"))
    })?;
    if manifest.corpus_dir.is_none() {
        return Err(CliError::runtime(format!(
            "manifest {manifest_arg:?} records no corpus directory — rebuild it with \
             `gks index <manifest> <corpus-dir>` to enable the update path"
        )));
    }
    if once {
        let outcome = maintain(&manifest_path, threshold);
        let mut out = String::new();
        render_tick(&outcome, &mut out);
        if out.is_empty() {
            let _ = writeln!(out, "corpus unchanged — nothing to commit");
        }
        return Ok(out);
    }
    let banner = format!(
        "gks-watch: polling {} every {} ms{}\n",
        manifest_arg,
        interval.as_millis(),
        threshold
            .map(|t| format!(", compacting at {t} delta shard(s)"))
            .unwrap_or_default()
    );
    until_signalled("gks-watch", &banner, interval, || {
        let mut events = String::new();
        render_tick(&maintain(&manifest_path, threshold), &mut events);
        if !events.is_empty() {
            print!("gks-watch: {events}");
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
    });
    Ok("gks-watch: stopped\n".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sample_spellings() {
        assert_eq!(parse_trace_sample("1"), Some(1));
        assert_eq!(parse_trace_sample("16"), Some(16));
        assert_eq!(parse_trace_sample("1/8"), Some(8));
        assert_eq!(parse_trace_sample("1/0"), None);
        assert_eq!(parse_trace_sample("0"), None);
        assert_eq!(parse_trace_sample("2/3"), None);
    }

    #[test]
    fn index_spec_sniffs_manifests_and_shard_lists() {
        let dir = std::env::temp_dir().join(format!("gks-cli-spec-{}", std::process::id()));
        let corpus = dir.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        std::fs::write(corpus.join("a.xml"), "<r><x>alpha</x></r>").unwrap();
        std::fs::write(corpus.join("b.xml"), "<r><x>beta</x></r>").unwrap();
        let manifest = dir.join("corpus.shards");
        let options = gks_index::IndexOptions::default();
        let built = gks_index::index_directory(&corpus, &manifest, 2, options).unwrap();
        assert!(index_spec_for("m", manifest.to_str().unwrap()).is_ok(), "manifest sniffed");
        let shard_paths: Vec<&str> =
            built.shards.iter().map(|s| s.path.to_str().unwrap()).collect();
        assert!(index_spec_for("m", &shard_paths.join(",")).is_ok(), "comma list accepted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
