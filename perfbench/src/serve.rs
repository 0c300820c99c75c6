//! `serve_mix`: the `cde-serve` daemon, run as a child process and
//! driven over its HTTP control plane with one connection at a time.
//!
//! Two tenants (weights 1 and 3) and a rate budget above what the daemon
//! reaches. Campaigns are held at a fixed concurrency of [`CONCURRENCY`]
//! (caches_hint 64, window 32, a checkpoint every 64 completions),
//! closed loop: a finished campaign is replaced at once. Alongside runs
//! an open-loop schedule of reads — the newest campaign's status,
//! `/v1/health` and `/metrics` — each timed from when it was due.
//!
//! One daemon serves the whole run, as an operator's daemon would serve
//! a stream of campaigns. Set-up starts [`SETUPS`] daemons in turn and
//! keeps the last; `setup_s` is the median start.
//!
//! The child is this same executable started with [`CHILD_FLAG`]: it
//! builds the daemon from `cde_serve::DaemonConfig` exactly as the
//! `cde-serve` binary does, so the benchmark needs no second build.

use crate::procfs::{self, ThreadLedger};
use crate::report::{json_names, Report};
use crate::stats::{self, Dist};
use crate::trace::Tracer;
use crate::Config;
use cde_engine::RateConfig;
use cde_serve::{Daemon, DaemonConfig};
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// First argument that turns the executable into the daemon child.
pub const CHILD_FLAG: &str = "--serve-child";

/// Caches planted in the daemon's testbed.
const CACHES: u64 = 6;
/// Campaigns kept running at once.
const CONCURRENCY: usize = 8;
/// Spacing of the open-loop reads: up to about 160 a run, so the
/// whole-run tail of their round trips is a p90 (100 to 199 samples),
/// or lower when the control plane falls behind. Reads share the one
/// connection with campaign submits and wait behind them
/// (`harness.gen_lag_ms`).
const READ_PERIOD: Duration = Duration::from_millis(120);
/// Global probe budget per second: above what the daemon reaches here,
/// so the limiter paces bursts but never binds.
const RATE: f64 = 20_000.0;
/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long the campaigns in flight at the end of the measured window
/// may take to finish before they count as failed.
const DRAIN: Duration = Duration::from_secs(30);
/// Samples per window of the tails: HTTP reads and campaign times form
/// one window each.
const HTTP_WINDOW: usize = 1000;
const TTE_WINDOW: usize = 1000;
/// The daemon's telemetry JSONL, beside its checkpoint directory.
const EVENTS: &str = "events.jsonl";
const TENANTS: [(&str, u32); 2] = [("alice", 1), ("bob", 3)];
const READS: [Route; 3] = [Route::Status, Route::Health, Route::Metrics];

/// Runs the daemon in this process: `--serve-child <checkpoint dir>
/// <seed> <addr file>`, with its telemetry JSONL beside the checkpoint
/// directory. Returns when a client POSTs `/v1/shutdown`.
pub fn child_main(args: &[String]) -> ExitCode {
    let [dir, seed, addr_file] = args else {
        eprintln!("perfbench: {CHILD_FLAG} <checkpoint dir> <seed> <addr file>");
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse() else {
        eprintln!("perfbench: bad seed {seed}");
        return ExitCode::from(2);
    };
    let config = DaemonConfig {
        checkpoint_dir: PathBuf::from(dir),
        caches: CACHES as usize,
        seed,
        rate: RateConfig {
            per_second: RATE,
            burst: 8.0,
        },
        addr_file: Some(PathBuf::from(addr_file)),
        telemetry_jsonl: Some(Path::new(dir).with_file_name(EVENTS)),
        ..DaemonConfig::default()
    };
    match Daemon::start(config).and_then(Daemon::run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: daemon: {err}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Route {
    Status,
    Health,
    Metrics,
    Submit,
}

impl Route {
    fn span(self) -> &'static str {
        match self {
            Route::Status => "serve.http_status",
            Route::Health => "serve.http_health",
            Route::Metrics => "serve.http_metrics",
            Route::Submit => "serve.http_submit",
        }
    }
}

/// One request over a fresh connection; returns status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_owned();
    Ok((status, body))
}

/// The raw token after `"key":` in a flat JSON object.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = obj[at..].trim_start();
    match rest.strip_prefix('"') {
        Some(q) => q.get(..q.find('"')?),
        None => rest
            .get(..rest.find([',', '}']).unwrap_or(rest.len()))
            .map(str::trim),
    }
}

/// A daemon child with its control-plane address and directory.
struct DaemonChild {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
}

impl DaemonChild {
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit; `false`
    /// (and a kill) if it does not within ten seconds.
    fn shutdown(mut self) -> bool {
        let _ = http(self.addr, "POST", "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts the daemon, waits for its address and registers the tenants.
fn spawn(out_dir: &Path, seed: u64, k: usize) -> DaemonChild {
    let dir = out_dir.join(format!("serve-{seed}-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create daemon directory");
    let addr_file = dir.join("addr");
    let child = Command::new(std::env::current_exe().expect("own executable"))
        .arg(CHILD_FLAG)
        .arg(dir.join("ckpt"))
        .arg(seed.to_string())
        .arg(&addr_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn daemon child");
    let mut handle = DaemonChild {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        dir,
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        // The daemon writes "<addr>\n"; the newline says it is whole.
        if let Some(addr) = std::fs::read_to_string(&addr_file)
            .ok()
            .filter(|s| s.ends_with('\n'))
            .and_then(|s| s.trim().parse().ok())
        {
            handle.addr = addr;
            break;
        }
        assert!(Instant::now() < deadline, "daemon never wrote its address");
        assert!(
            matches!(handle.child.try_wait(), Ok(None)),
            "daemon exited during start-up"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for (name, weight) in TENANTS {
        let body = format!("{{\"name\": \"{name}\", \"weight\": {weight}}}");
        let (status, _) = http(handle.addr, "POST", "/v1/tenants", &body).expect("register tenant");
        assert_eq!(status, 200, "tenant registration");
    }
    handle
}

/// Everything the measured window gathers.
#[derive(Default)]
struct Window {
    /// Every request by route, from when it was due.
    latency_ms: HashMap<Route, Vec<f64>>,
    /// Open-loop reads, from send to full response.
    read_rtt_us: Vec<f64>,
    lag_ms: Vec<f64>,
    tte_ms: Vec<f64>,
    totals: Vec<f64>,
    checkpoints: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    probes: f64,
    campaigns: usize,
}

/// Follows the daemon's telemetry JSONL as its run loop appends to it
/// (every 100 ms): each `serve_campaign` span's end marks a finished
/// campaign, and its length by the daemon's clock is the campaign's
/// time to exact count.
struct SpanTail {
    path: PathBuf,
    offset: u64,
    partial: String,
    begun: HashMap<u64, u64>,
}

impl SpanTail {
    fn new(path: PathBuf) -> SpanTail {
        SpanTail {
            path,
            offset: 0,
            partial: String::new(),
            begun: HashMap::new(),
        }
    }

    /// Reads what was appended since the last call; returns the lengths
    /// (ms) of the campaign spans that ended in it.
    fn poll(&mut self) -> Vec<f64> {
        let mut ended = Vec::new();
        let Ok(mut file) = std::fs::File::open(&self.path) else {
            return ended;
        };
        if file.seek(SeekFrom::Start(self.offset)).is_err() {
            return ended;
        }
        let mut fresh = String::new();
        let Ok(n) = file.read_to_string(&mut fresh) else {
            return ended;
        };
        self.offset += n as u64;
        self.partial.push_str(&fresh);
        let Some(cut) = self.partial.rfind('\n') else {
            return ended;
        };
        let complete: String = self.partial.drain(..=cut).collect();
        for line in complete
            .lines()
            .filter(|l| l.contains("\"campaign_begin\"") || l.contains("\"campaign_end\""))
        {
            let num = |k| field(line, k).and_then(|v| v.parse::<u64>().ok());
            let (Some(at), Some(id)) = (num("at_us"), num("campaign")) else {
                continue;
            };
            if field(line, "kind") == Some("campaign_begin") {
                if field(line, "name") == Some("serve_campaign") {
                    self.begun.insert(id, at);
                }
            } else if let Some(start) = self.begun.remove(&id) {
                ended.push(at.saturating_sub(start) as f64 / 1e3);
            }
        }
        ended
    }
}

/// Drives the daemon through the measured window.
struct Client<'a> {
    addr: SocketAddr,
    report: &'a mut Report,
    tr: &'a mut Tracer,
    w: &'a mut Window,
    ids: Vec<String>,
    finished: usize,
}

impl Client<'_> {
    /// Times one request from `due`, checks it is 2xx, records it.
    fn request(
        &mut self,
        route: Route,
        due: Instant,
        method: &str,
        path: &str,
        body: &str,
    ) -> String {
        let sent = Instant::now();
        let result = http(self.addr, method, path, body);
        let end = Instant::now();
        if route != Route::Submit {
            self.w
                .read_rtt_us
                .push(end.duration_since(sent).as_secs_f64() * 1e6);
        }
        self.tr
            .record(route.span(), 0, self.ids.len() as u64, due, end);
        let ms = end.duration_since(due).as_secs_f64() * 1e3;
        self.w.latency_ms.entry(route).or_default().push(ms);
        match result {
            Ok((status, body)) => {
                self.report.check((200..300).contains(&status), || {
                    format!(
                        "{method} {path} answered {status}: {}",
                        &body[..body.len().min(300)]
                    )
                });
                body
            }
            Err(err) => {
                self.report
                    .check(false, || format!("{method} {path} failed: {err}"));
                String::new()
            }
        }
    }

    /// Tops the daemon up to [`CONCURRENCY`] running campaigns.
    fn top_up(&mut self) {
        while self.ids.len() - self.finished < CONCURRENCY {
            let tenant = TENANTS[self.ids.len() % 2].0;
            let body = format!(
                "{{\"tenant\": \"{tenant}\", \"label\": \"mix\", \"caches_hint\": 64, \"window\": 32, \"checkpoint_every\": 64}}"
            );
            let body = self.request(
                Route::Submit,
                Instant::now(),
                "POST",
                "/v1/campaigns",
                &body,
            );
            match field(&body, "id") {
                Some(id) => self.ids.push(id.to_owned()),
                None => {
                    self.report
                        .check(false, || format!("submit returned no id: {body}"));
                    return;
                }
            }
        }
    }

    /// Checks every submitted campaign from one list read: each `done`,
    /// fully accounted, with the planted count.
    fn verify(&mut self) {
        let list = http(self.addr, "GET", "/v1/campaigns", "")
            .map(|(_, list)| list)
            .unwrap_or_default();
        let mut seen = 0;
        for obj in list.split('{').skip(1) {
            let Some(id) = field(obj, "id") else { continue };
            if !self.ids.iter().any(|i| i == id) {
                continue;
            }
            seen += 1;
            let state = field(obj, "state").unwrap_or("");
            let estimated = field(obj, "estimated").unwrap_or("");
            self.report.check(
                state == "done"
                    && field(obj, "fully_accounted") == Some("true")
                    && estimated == CACHES.to_string(),
                || format!("campaign {id} ended {state}, estimated {estimated} of {CACHES}: {obj}"),
            );
            let num = |k| {
                field(obj, k)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            self.w.probes += num("completed");
            self.w.campaigns += 1;
            self.w.totals.push(num("total"));
            self.w.checkpoints.push(num("checkpoints"));
            if let Some(meta) =
                field(obj, "checkpoint_path").and_then(|p| std::fs::metadata(p).ok())
            {
                self.w.checkpoint_bytes.push(meta.len() as f64);
            }
        }
        let submitted = self.ids.len();
        self.report.check(seen == submitted, || {
            format!("{seen} of {submitted} campaigns listed")
        });
    }
}

pub fn run(cfg: &Config, report: &mut Report) {
    let mut tr = Tracer::new(cfg.trace);
    let mut w = Window::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        if let Some(old) = daemon.take() {
            stop(old, report);
        }
        let start = Instant::now();
        daemon = Some(spawn(&cfg.out_dir, cfg.seed, k));
        setups.push(start.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("a daemon started");
    let pid = daemon.pid();
    let mut ledger = ThreadLedger::open(pid);
    let cpu0 = procfs::process_cpu_s(pid);
    let mut spans = SpanTail::new(daemon.dir.join(EVENTS));
    let start = Instant::now();
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut client = Client {
        addr: daemon.addr,
        report: &mut *report,
        tr: &mut tr,
        w: &mut w,
        ids: Vec::new(),
        finished: 0,
    };
    client.top_up();
    // Reads start once the first campaigns are in: the opening burst of
    // submits is not what an operator's reads meet.
    let mut due = Instant::now();
    let mut i = 0usize;
    // Closed loop until the window ends; then the campaigns in flight
    // finish (within DRAIN) while the reads go on.
    while start.elapsed() < window
        || (client.finished < client.ids.len() && start.elapsed() < window + DRAIN)
    {
        let ended = spans.poll();
        client.finished += ended.len();
        client.w.tte_ms.extend(ended);
        if start.elapsed() < window {
            client.top_up();
        }
        if Instant::now() < due {
            // The daemon appends its telemetry every 100 ms.
            std::thread::sleep(Duration::from_millis(20).min(due - Instant::now()));
            continue;
        }
        client
            .w
            .lag_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let route = READS[i % READS.len()];
        let path = match route {
            Route::Status => format!(
                "/v1/campaigns/{}",
                client.ids.last().map_or("", String::as_str)
            ),
            Route::Health => "/v1/health".to_owned(),
            _ => "/metrics".to_owned(),
        };
        client.request(route, due, "GET", &path, "");
        ledger.sample();
        i += 1;
        due += READ_PERIOD;
    }
    let wall_s = start.elapsed().as_secs_f64();
    client.verify();
    ledger.sample();
    let cpu_s = procfs::process_cpu_s(pid) - cpu0;
    let peak_rss_mb = procfs::peak_rss_mb(pid);
    stop(daemon, report);
    report.check(w.campaigns > 0, || "no daemon campaign finished".into());
    let probes = w.probes.max(1.0);
    // A daemon's user sees HTTP round trips, not probes: here `rtt_*` is
    // the control plane's round trip for the open-loop reads, from send
    // to full response. Timed from when they were due, reads also wait
    // behind campaign submits (one connection at a time, and the accept
    // loop serves one request at a time): that wait covers about half of
    // the reads, so a median from due sits between its two modes and
    // swings between runs; those figures are the traced run's
    // `serve.http_*_ms` and `harness.gen_lag_ms`.
    let http = Dist::of(&w.read_rtt_us, HTTP_WINDOW);
    let tte = Dist::of(&w.tte_ms, TTE_WINDOW);
    report.set_setups(&setups);
    report.set("probes_per_s", w.probes / wall_s);
    report.set("cpu_us_per_probe", cpu_s * 1e6 / probes);
    report.set("rtt_p50_us", http.p50);
    report.set("rtt_tail_us", http.tail);
    report.set("tte_p50_ms", tte.p50);
    report.set("tte_tail_ms", tte.tail);
    report.set("queries_to_exact", stats::median(&w.totals));
    report.set("campaigns_per_s", w.campaigns as f64 / wall_s);
    report.set("peak_rss_mb", peak_rss_mb);
    report.detail(
        "tails",
        format!(
            "{{\"rtt_tail_us\": {}, \"tte_tail_ms\": {}}}",
            http.tail_json(),
            tte.tail_json()
        ),
    );
    report.detail("campaigns", w.campaigns.to_string());
    if !cfg.trace {
        return;
    }
    // The serve layer's figures go on the detail line: the workload is
    // not in BENCHMARK.json (see README.md), so they are not ledger
    // metrics of the listed workloads.
    let mut serve = Vec::new();
    for (route, name) in [
        (Route::Status, "serve.http_status_ms"),
        (Route::Health, "serve.http_health_ms"),
        (Route::Metrics, "serve.http_metrics_ms"),
        (Route::Submit, "serve.http_submit_ms"),
    ] {
        let v = w.latency_ms.get(&route).cloned().unwrap_or_default();
        serve.push((name, stats::median(&v)));
    }
    let cpu_us_per_probe =
        |pick: &dyn Fn(u32, &str) -> bool| ledger.cpu_s(|tid, comm| pick(tid, comm)) * 1e6 / probes;
    serve.extend([
        (
            "serve.checkpoints_per_campaign",
            stats::median(&w.checkpoints),
        ),
        ("serve.checkpoint_bytes", stats::median(&w.checkpoint_bytes)),
        (
            "serve.worker_cpu_us_per_probe",
            cpu_us_per_probe(&|_, comm| comm.starts_with("cde-serve-c-")),
        ),
        (
            "serve.http_cpu_s",
            ledger.cpu_s(|_, comm| comm == "cde-serve-http"),
        ),
    ]);
    let serve: Vec<String> = serve
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    report.detail("serve_layer", format!("{{{}}}", serve.join(", ")));
    report.set(
        "reactor.shard_cpu_us_per_probe",
        cpu_us_per_probe(&|_, comm| comm.starts_with("cde-reactor")),
    );
    // Unnamed threads (the loopback resolver and authority) inherit the
    // main thread's name; the main thread runs the daemon's sampler.
    report.set(
        "serving.cpu_us_per_probe",
        cpu_us_per_probe(&|tid, comm| tid != pid && !comm.starts_with("cde-")),
    );
    report.set("harness.gen_lag_ms", stats::median(&w.lag_ms));
    report.set("harness.fail_frac", report.fail_frac());
    let lag = Dist::of(&w.lag_ms, HTTP_WINDOW);
    report.detail(
        "gen_lag_ms",
        format!(
            "{{\"p50\": {}, \"tail\": {}, \"tail_of\": {}}}",
            lag.p50,
            lag.tail,
            lag.tail_json()
        ),
    );
    report.detail("span_self_ns", crate::trace::self_times_json(tr.spans()));
    let missing = report.missing(crate::report::PER_LAYER);
    report.detail("not_applicable", json_names(&missing));
    let path = cfg
        .out_dir
        .join(format!("serve_mix-{}-spans.jsonl", cfg.seed));
    tr.write_jsonl(&path).expect("write spans");
}

/// Shuts `daemon` down (a check) and removes its directory.
fn stop(daemon: DaemonChild, report: &mut Report) {
    let (addr, dir) = (daemon.addr, daemon.dir.clone());
    report.check(daemon.shutdown(), || {
        format!("daemon at {addr} did not shut down cleanly")
    });
    let _ = std::fs::remove_dir_all(&dir);
}
