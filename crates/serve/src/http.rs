//! A dependency-free HTTP/1.1 control plane for the campaign daemon.
//!
//! The server is intentionally minimal: one accept thread, one request
//! per connection (`Connection: close`), bodies parsed with a
//! hand-rolled key extractor instead of a JSON dependency. It serves an
//! operator loopback, not the open internet — limits are sized for curl
//! and the CI smoke driver.
//!
//! | Method & path                     | Effect                                   |
//! |-----------------------------------|------------------------------------------|
//! | `GET /healthz`                    | liveness probe                           |
//! | `GET /metrics`                    | Prometheus text exposition               |
//! | `GET /v1/health`                  | SLO verdict (503 when Critical)          |
//! | `GET /v1/health/shards`           | per-shard runtime stats + imbalance      |
//! | `POST /v1/tenants`                | register/re-weight a tenant              |
//! | `POST /v1/campaigns`              | submit a campaign, returns `{"id": ...}` |
//! | `GET /v1/campaigns`               | list campaign statuses                   |
//! | `GET /v1/campaigns/<id>`          | one campaign status                      |
//! | `POST /v1/campaigns/<id>/cancel`  | stop a campaign (terminal snapshot)      |
//! | `POST /v1/campaigns/<id>/checkpoint` | write a snapshot now                 |
//! | `POST /v1/flight/dump`            | snapshot the flight rings to JSONL       |
//! | `POST /v1/shutdown`               | request graceful daemon shutdown         |

use crate::campaign::CampaignSpec;
use crate::manager::CampaignManager;
use cde_engine::RateConfig;
use cde_pulse::{HealthStatus, Pulse};
use cde_telemetry::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 8 * 1024;
/// Upper bound on a request body.
const MAX_BODY: usize = 64 * 1024;

/// The running HTTP listener. Dropping it stops the accept loop.
#[derive(Debug)]
pub struct ControlPlane {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ControlPlane {
    /// Binds `listen` (port 0 picks an ephemeral port) and starts the
    /// accept loop over `manager` and `registry`. With a [`Pulse`], the
    /// self-diagnosis routes (`/v1/health`, `/v1/health/shards`) come
    /// alive; without one they answer 404.
    pub fn start(
        listen: SocketAddr,
        manager: Arc<CampaignManager>,
        registry: Arc<MetricsRegistry>,
        pulse: Option<Arc<Pulse>>,
    ) -> io::Result<ControlPlane> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let stop_for_thread = Arc::clone(&stop);
        let shutdown_for_thread = Arc::clone(&shutdown_requested);
        let thread = std::thread::Builder::new()
            .name("cde-serve-http".into())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &stop_for_thread,
                    &shutdown_for_thread,
                    &manager,
                    &registry,
                    pulse.as_ref(),
                );
            })?;
        Ok(ControlPlane {
            addr,
            stop,
            shutdown_requested,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a client has POSTed `/v1/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Stops the accept loop and joins its thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    shutdown_requested: &AtomicBool,
    manager: &Arc<CampaignManager>,
    registry: &Arc<MetricsRegistry>,
    pulse: Option<&Arc<Pulse>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_connection(stream, shutdown_requested, manager, registry, pulse);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    shutdown_requested: &AtomicBool,
    manager: &Arc<CampaignManager>,
    registry: &Arc<MetricsRegistry>,
    pulse: Option<&Arc<Pulse>>,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(_) => {
            return respond(
                &mut stream,
                &Response::json(400, "{\"error\": \"bad request\"}".to_owned()),
            )
        }
    };
    let response = route(&request, shutdown_requested, manager, registry, pulse);
    respond(&mut stream, &response)
}

struct Request {
    method: String,
    path: String,
    body: String,
}

fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // One-byte reads keep the parser trivial; control-plane heads are
    // a few hundred bytes, so this is never a throughput concern.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(bad("request head too large"));
        }
        match stream.read(&mut byte)? {
            0 => return Err(bad("connection closed mid-head")),
            _ => head.push(byte[0]),
        }
    }
    let head = String::from_utf8(head).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_owned();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_owned();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("non-utf8 body"))?;
    Ok(Request { method, path, body })
}

/// A fully-formed HTTP response: status, body and the one extra header
/// the control plane ever sets (`Allow`, on 405s).
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    allow: Option<&'static str>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            allow: None,
        }
    }
}

fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let allow = match response.allow {
        Some(methods) => format!("Allow: {methods}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{allow}Connection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// The methods a known path answers, `None` for unknown paths. Drives
/// the 404-vs-405 split: a wrong method on a real resource is `405` with
/// an `Allow` header, not a misleading `404`.
fn allowed_methods(path: &str) -> Option<&'static str> {
    match path {
        "/healthz" | "/metrics" | "/v1/health" | "/v1/health/shards" => Some("GET"),
        "/v1/shutdown" | "/v1/tenants" | "/v1/flight/dump" => Some("POST"),
        "/v1/campaigns" => Some("GET, POST"),
        _ if path.starts_with("/v1/campaigns/") => {
            if path.ends_with("/cancel") || path.ends_with("/checkpoint") {
                Some("POST")
            } else {
                Some("GET")
            }
        }
        _ => None,
    }
}

fn route(
    request: &Request,
    shutdown_requested: &AtomicBool,
    manager: &Arc<CampaignManager>,
    registry: &Arc<MetricsRegistry>,
    pulse: Option<&Arc<Pulse>>,
) -> Response {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => Response::json(200, "{\"ok\": true}".to_owned()),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: registry.prometheus_text(),
            allow: None,
        },
        ("GET", "/v1/health") => match pulse {
            Some(pulse) => {
                let verdict = pulse.health();
                let status = if verdict.status == HealthStatus::Critical {
                    503
                } else {
                    200
                };
                Response::json(status, pulse.health_json())
            }
            None => Response::json(
                404,
                "{\"error\": \"health engine not attached\"}".to_owned(),
            ),
        },
        ("GET", "/v1/health/shards") => match pulse {
            Some(pulse) => Response::json(200, pulse.shards_json()),
            None => Response::json(
                404,
                "{\"error\": \"health engine not attached\"}".to_owned(),
            ),
        },
        ("POST", "/v1/shutdown") => {
            shutdown_requested.store(true, Ordering::SeqCst);
            Response::json(200, "{\"ok\": true}".to_owned())
        }
        ("POST", "/v1/flight/dump") => match manager.write_flight_dump() {
            Ok(Some(path)) => {
                let escaped = path
                    .display()
                    .to_string()
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"");
                Response::json(200, format!("{{\"flight_dump\": \"{escaped}\"}}"))
            }
            Ok(None) => Response::json(
                404,
                "{\"error\": \"flight recorder not attached\"}".to_owned(),
            ),
            Err(err) => Response::json(500, format!("{{\"error\": \"{err}\"}}")),
        },
        ("POST", "/v1/tenants") => handle_register_tenant(&request.body, manager),
        ("POST", "/v1/campaigns") => handle_submit(&request.body, manager),
        ("GET", "/v1/campaigns") => {
            let statuses: Vec<String> = manager.list().iter().map(|s| s.to_json()).collect();
            Response::json(200, format!("[{}]", statuses.join(", ")))
        }
        ("GET", _)
            if path.starts_with("/v1/campaigns/") && allowed_methods(path) == Some("GET") =>
        {
            let id = &path["/v1/campaigns/".len()..];
            match manager.status(id) {
                Some(status) => Response::json(200, status.to_json()),
                None => Response::json(404, "{\"error\": \"unknown campaign\"}".to_owned()),
            }
        }
        ("POST", _) if path.starts_with("/v1/campaigns/") && path.ends_with("/cancel") => {
            let id = &path["/v1/campaigns/".len()..path.len() - "/cancel".len()];
            if manager.cancel(id) {
                Response::json(200, "{\"ok\": true}".to_owned())
            } else {
                Response::json(404, "{\"error\": \"unknown campaign\"}".to_owned())
            }
        }
        ("POST", _) if path.starts_with("/v1/campaigns/") && path.ends_with("/checkpoint") => {
            let id = &path["/v1/campaigns/".len()..path.len() - "/checkpoint".len()];
            match manager.checkpoint_now(id) {
                Ok(path) => {
                    let escaped = path
                        .display()
                        .to_string()
                        .replace('\\', "\\\\")
                        .replace('"', "\\\"");
                    Response::json(200, format!("{{\"checkpoint_path\": \"{escaped}\"}}"))
                }
                Err(err) if err.kind() == io::ErrorKind::NotFound => {
                    Response::json(404, "{\"error\": \"unknown campaign\"}".to_owned())
                }
                Err(err) => Response::json(500, format!("{{\"error\": \"{err}\"}}")),
            }
        }
        _ => match allowed_methods(path) {
            Some(allow) => Response {
                allow: Some(allow),
                ..Response::json(405, "{\"error\": \"method not allowed\"}".to_owned())
            },
            None => Response::json(404, "{\"error\": \"no such route\"}".to_owned()),
        },
    }
}

fn handle_register_tenant(body: &str, manager: &Arc<CampaignManager>) -> Response {
    let Some(name) = body_str(body, "name") else {
        return Response::json(400, "{\"error\": \"missing tenant name\"}".to_owned());
    };
    let weight = body_f64(body, "weight").unwrap_or(crate::tenant::DEFAULT_WEIGHT);
    let cap = match (
        body_f64(body, "cap_per_second"),
        body_f64(body, "cap_burst"),
    ) {
        (Some(per_second), burst) => Some(RateConfig {
            per_second,
            burst: burst.unwrap_or(1.0),
        }),
        (None, _) => None,
    };
    match manager.register_tenant(&name, weight, cap) {
        Ok(()) => Response::json(
            200,
            format!("{{\"tenant\": \"{name}\", \"weight\": {weight}}}"),
        ),
        Err(err) => Response::json(400, format!("{{\"error\": \"{err}\"}}")),
    }
}

fn handle_submit(body: &str, manager: &Arc<CampaignManager>) -> Response {
    let mut spec = CampaignSpec::default();
    if let Some(tenant) = body_str(body, "tenant") {
        spec.tenant = tenant;
    }
    if let Some(label) = body_str(body, "label") {
        spec.label = label;
    }
    if let Some(caches) = body_u64(body, "caches_hint") {
        spec.caches_hint = caches;
    }
    if let Some(loss) = body_f64(body, "loss_hint") {
        spec.loss_hint = loss;
    }
    if let Some(burst) = body_f64(body, "mean_burst_hint") {
        spec.mean_burst_hint = burst;
    }
    if let Some(farm) = body_u64(body, "farm_size") {
        spec.farm_size = farm as usize;
    }
    if let Some(redundancy) = body_u64(body, "redundancy") {
        spec.redundancy = redundancy;
    }
    if let Some(window) = body_u64(body, "window") {
        spec.window = window as usize;
    }
    if let Some(every) = body_u64(body, "checkpoint_every") {
        spec.checkpoint_every = every;
    }
    if let Some(epsilon) = body_f64(body, "sequential_epsilon") {
        spec.sequential_epsilon = epsilon;
    }
    match manager.submit(spec) {
        Ok(id) => Response::json(200, format!("{{\"id\": \"{id}\"}}")),
        Err(err) => Response::json(400, format!("{{\"error\": \"{err}\"}}")),
    }
}

/// Finds `"key"` in a flat JSON object and returns the raw token after
/// the colon (quoted string without escapes, or a bare number/keyword).
/// Good enough for the control plane's own flat request bodies; not a
/// general JSON parser.
fn body_token(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        let end = quoted.find('"')?;
        Some(quoted[..end].to_owned())
    } else {
        let end = rest
            .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .unwrap_or(rest.len());
        if end == 0 {
            None
        } else {
            Some(rest[..end].to_owned())
        }
    }
}

fn body_str(body: &str, key: &str) -> Option<String> {
    body_token(body, key)
}

fn body_u64(body: &str, key: &str) -> Option<u64> {
    body_token(body, key)?.parse().ok()
}

fn body_f64(body: &str, key: &str) -> Option<f64> {
    body_token(body, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_methods_cover_every_route() {
        assert_eq!(allowed_methods("/healthz"), Some("GET"));
        assert_eq!(allowed_methods("/metrics"), Some("GET"));
        assert_eq!(allowed_methods("/v1/health"), Some("GET"));
        assert_eq!(allowed_methods("/v1/health/shards"), Some("GET"));
        assert_eq!(allowed_methods("/v1/shutdown"), Some("POST"));
        assert_eq!(allowed_methods("/v1/tenants"), Some("POST"));
        assert_eq!(allowed_methods("/v1/flight/dump"), Some("POST"));
        assert_eq!(allowed_methods("/v1/campaigns"), Some("GET, POST"));
        assert_eq!(allowed_methods("/v1/campaigns/c-1"), Some("GET"));
        assert_eq!(allowed_methods("/v1/campaigns/c-1/cancel"), Some("POST"));
        assert_eq!(
            allowed_methods("/v1/campaigns/c-1/checkpoint"),
            Some("POST")
        );
        assert_eq!(allowed_methods("/v1/nope"), None);
        assert_eq!(allowed_methods("/"), None);
    }

    #[test]
    fn body_extractors_read_flat_json() {
        let body = "{\"name\": \"alice\", \"weight\": 3.5, \"farm_size\": 120, \"flag\": true}";
        assert_eq!(body_str(body, "name").as_deref(), Some("alice"));
        assert_eq!(body_f64(body, "weight"), Some(3.5));
        assert_eq!(body_u64(body, "farm_size"), Some(120));
        assert_eq!(body_str(body, "flag").as_deref(), Some("true"));
        assert_eq!(body_str(body, "missing"), None);
        assert_eq!(body_u64(body, "name"), None);
    }
}
