//! End-to-end exercise of the HTTP control plane against a full
//! [`cde_serve::Daemon`]: tenant registration, campaign submission,
//! status polling, checkpointing, cancellation, the Prometheus scrape,
//! and weighted fairness between two concurrent tenants.

use cde_engine::RateConfig;
use cde_serve::{Daemon, DaemonConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A deliberately primitive HTTP/1.1 client: one request, one
/// connection — exactly what the control plane serves. Returns status,
/// raw head (status line + headers) and body.
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect control plane");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: cde-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_owned(), b.to_owned()))
        .unwrap_or_default();
    (status, head, body)
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http_raw(addr, method, path, body);
    (status, body)
}

/// Pulls `"key": "value"` or `"key": value` out of a flat JSON body.
fn field(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start().strip_prefix(':')?.trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        Some(quoted[..quoted.find('"')?].to_owned())
    } else {
        let end = rest
            .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .unwrap_or(rest.len());
        Some(rest[..end].to_owned())
    }
}

/// Reads one labelled sample out of a Prometheus exposition.
fn sample(metrics: &str, name: &str, tenant: &str) -> Option<f64> {
    let prefix = format!("{name}{{tenant=\"{tenant}\"}}");
    metrics.lines().find_map(|line| {
        line.strip_prefix(&prefix)
            .and_then(|rest| rest.trim().parse().ok())
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cde-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn poll_until<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "poll deadline exceeded");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn control_plane_drives_weighted_tenants_end_to_end() {
    let daemon = Daemon::start(DaemonConfig {
        checkpoint_dir: fresh_dir("ctl"),
        caches: 4,
        seed: 1717,
        rate: RateConfig {
            per_second: 200.0,
            burst: 4.0,
        },
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = daemon.addr();
    let server = std::thread::spawn(move || daemon.run());

    // Liveness and error surfaces first.
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\": true}"));
    let (status, _) = http(addr, "GET", "/v1/campaigns/c-999", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);

    // A wrong method on a real resource is 405 with an Allow header —
    // not a misleading 404 and not a header-less 405.
    let (status, head, _) = http_raw(addr, "DELETE", "/v1/campaigns", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET, POST"), "{head}");
    let (status, head, _) = http_raw(addr, "PUT", "/healthz", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET"), "{head}");
    let (status, head, _) = http_raw(addr, "GET", "/v1/shutdown", "");
    assert_eq!(status, 405, "GET on a POST route must not shut down");
    assert!(head.contains("Allow: POST"), "{head}");
    let (status, _, _) = http_raw(addr, "DELETE", "/v1/nope", "");
    assert_eq!(status, 404, "unknown paths stay 404 for any method");
    let (status, body) = http(
        addr,
        "POST",
        "/v1/campaigns",
        "{\"tenant\": \"bad tenant\"}",
    );
    assert_eq!(status, 400, "hostile names must bounce: {body}");

    // Two tenants sharing the 200/s budget 1:3.
    let (status, _) = http(
        addr,
        "POST",
        "/v1/tenants",
        "{\"name\": \"alice\", \"weight\": 1}",
    );
    assert_eq!(status, 200);
    let (status, _) = http(
        addr,
        "POST",
        "/v1/tenants",
        "{\"name\": \"bob\", \"weight\": 3}",
    );
    assert_eq!(status, 200);

    // Identical concurrent campaigns; only the weights differ.
    let submit = |tenant: &str| -> String {
        let body = format!(
            "{{\"tenant\": \"{tenant}\", \"label\": \"fair\", \"caches_hint\": 4, \
             \"farm_size\": 120, \"redundancy\": 1, \"window\": 16, \"checkpoint_every\": 0}}"
        );
        let (status, body) = http(addr, "POST", "/v1/campaigns", &body);
        assert_eq!(status, 200, "{body}");
        field(&body, "id").expect("campaign id")
    };
    let alice_id = submit("alice");
    let bob_id = submit("bob");

    // Fairness is a mid-run property (both tenants converge to equal
    // totals once bob finishes): sample the scrape while bob is deep in
    // his run and alice is paced behind him, and check the 1:3 split.
    let (alice_probes, bob_probes) = poll_until(Duration::from_secs(30), || {
        let (status, metrics) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let alice = sample(&metrics, "cde_serve_tenant_probes_total", "alice")?;
        let bob = sample(&metrics, "cde_serve_tenant_probes_total", "bob")?;
        (90.0..=119.0).contains(&bob).then_some((alice, bob))
    });
    let ratio = bob_probes / alice_probes.max(1.0);
    assert!(
        (2.4..=3.6).contains(&ratio),
        "1:3 weights must show in the scrape within 20%: alice={alice_probes} bob={bob_probes} ratio={ratio:.2}"
    );

    // Both campaigns run to completion with the exact planted count.
    for id in [&alice_id, &bob_id] {
        let body = poll_until(Duration::from_secs(60), || {
            let (status, body) = http(addr, "GET", &format!("/v1/campaigns/{id}"), "");
            assert_eq!(status, 200);
            (field(&body, "state").as_deref() == Some("done")).then_some(body)
        });
        assert_eq!(field(&body, "completed").as_deref(), Some("120"), "{body}");
        assert_eq!(
            field(&body, "fully_accounted").as_deref(),
            Some("true"),
            "{body}"
        );
        assert_eq!(field(&body, "estimated").as_deref(), Some("4"), "{body}");
    }

    // Checkpoint on demand, then cancel a third campaign mid-flight.
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/campaigns/{alice_id}/checkpoint"),
        "",
    );
    assert_eq!(status, 200, "{body}");
    let ckpt = field(&body, "checkpoint_path").expect("checkpoint path");
    assert!(std::path::Path::new(&ckpt).exists(), "{ckpt}");

    let (status, body) = http(
        addr,
        "POST",
        "/v1/campaigns",
        "{\"tenant\": \"alice\", \"label\": \"doomed\", \"farm_size\": 5000, \"redundancy\": 1}",
    );
    assert_eq!(status, 200, "{body}");
    let doomed = field(&body, "id").unwrap();
    let (status, _) = http(addr, "POST", &format!("/v1/campaigns/{doomed}/cancel"), "");
    assert_eq!(status, 200);
    let body = poll_until(Duration::from_secs(30), || {
        let (_, body) = http(addr, "GET", &format!("/v1/campaigns/{doomed}"), "");
        (field(&body, "state").as_deref() == Some("cancelled")).then_some(body)
    });
    let ckpt = field(&body, "checkpoint_path").expect("cancelled campaigns leave a snapshot");
    assert!(std::path::Path::new(&ckpt).exists(), "{ckpt}");

    // The list view knows all three campaigns.
    let (status, listing) = http(addr, "GET", "/v1/campaigns", "");
    assert_eq!(status, 200);
    for id in [&alice_id, &bob_id, &doomed] {
        assert!(listing.contains(&format!("\"id\": \"{id}\"")), "{listing}");
    }

    // Graceful shutdown over HTTP: the daemon drains and exits cleanly.
    let (status, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server
        .join()
        .expect("daemon thread")
        .expect("graceful shutdown must drain the reactor");
}

/// `sequential_epsilon` in a submit body reaches the campaign: a level
/// in `[0, 1)` runs the sequential stopping rule (the campaign ends at
/// the exact count with budget left over), and one outside it is a 400.
#[test]
fn submit_carries_sequential_epsilon() {
    let daemon = Daemon::start(DaemonConfig {
        checkpoint_dir: fresh_dir("seq"),
        caches: 4,
        seed: 2323,
        ..DaemonConfig::default()
    })
    .unwrap();
    let addr = daemon.addr();
    let server = std::thread::spawn(move || daemon.run());

    let (status, body) = http(
        addr,
        "POST",
        "/v1/campaigns",
        "{\"tenant\": \"seq\", \"sequential_epsilon\": 1.5}",
    );
    assert_eq!(status, 400, "an epsilon outside [0, 1) must bounce: {body}");
    assert!(body.contains("sequential_epsilon"), "{body}");

    let (status, body) = http(
        addr,
        "POST",
        "/v1/campaigns",
        "{\"tenant\": \"seq\", \"label\": \"early-stop\", \"caches_hint\": 4, \
         \"farm_size\": 256, \"redundancy\": 1, \"window\": 8, \
         \"checkpoint_every\": 4, \"sequential_epsilon\": 0.001}",
    );
    assert_eq!(status, 200, "{body}");
    let id = field(&body, "id").expect("campaign id");
    let body = poll_until(Duration::from_secs(60), || {
        let (status, body) = http(addr, "GET", &format!("/v1/campaigns/{id}"), "");
        assert_eq!(status, 200);
        (field(&body, "state").as_deref() == Some("done")).then_some(body)
    });
    assert_eq!(field(&body, "estimated").as_deref(), Some("4"), "{body}");
    assert_eq!(
        field(&body, "fully_accounted").as_deref(),
        Some("true"),
        "{body}"
    );
    let number = |key: &str| -> u64 { field(&body, key).unwrap().parse().unwrap() };
    assert_eq!(number("total"), 256, "{body}");
    assert!(
        number("completed") < number("total"),
        "a sequential campaign stops before the fixed budget: {body}"
    );

    let (status, _) = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server
        .join()
        .expect("daemon thread")
        .expect("graceful shutdown must drain the reactor");
}
