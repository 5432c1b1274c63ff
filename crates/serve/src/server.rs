//! Socket front-end: accept connections on a Unix or TCP endpoint, speak
//! the framed [`crate::proto`] protocol, one thread per connection. The
//! same binary-framed codec serves both transports; [`Client`] is the
//! in-process counterpart used by tests and the CLI.

use crate::proto::{Request, Response, WireOutcome};
use crate::sched::{JobOutcome, MetricsFrame, Scheduler, ServeStats};
use crate::spec::JobSpec;
use charmrt::wire::{read_frame, write_frame, WireCodec};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the service listens. Parse from `unix:<path>` or
/// `tcp:<host>:<port>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

impl std::str::FromStr for Endpoint {
    type Err = String;
    fn from_str(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "endpoint '{s}' must be unix:<path> or tcp:<host>:<port>"
            ))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A connected stream of either transport.
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(on),
            Listener::Tcp(l) => l.set_nonblocking(on),
        }
    }
}

/// A running server: its scheduler, the endpoint it actually bound (TCP
/// port 0 resolves here), and a stop signal.
pub struct ServerHandle {
    pub sched: Scheduler,
    pub endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Ask the accept loop to exit and wait for it. Existing connections
    /// finish their current request.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
    }

    /// Block until the accept loop exits on its own (a client sent
    /// `Shutdown`). This is what `namd-rs serve` sits in.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
    }
}

/// Bind `endpoint` and serve `sched` on a background accept thread.
/// A stale Unix socket file is replaced.
pub fn start(endpoint: &Endpoint, sched: Scheduler) -> io::Result<ServerHandle> {
    let (listener, bound) = match endpoint {
        Endpoint::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            (
                Listener::Unix(UnixListener::bind(path)?),
                Endpoint::Unix(path.clone()),
            )
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            let actual = l.local_addr()?;
            (Listener::Tcp(l), Endpoint::Tcp(actual.to_string()))
        }
    };
    // Poll the listener so the stop flag is honored promptly.
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let sched2 = sched.clone();
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || accept_loop(listener, sched2, stop2))
        .expect("spawn accept loop");
    Ok(ServerHandle {
        sched,
        endpoint: bound,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: Listener, sched: Scheduler, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                let sched = sched.clone();
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        let _ = handle_conn(conn, sched, stop);
                    })
                    .expect("spawn connection handler");
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
}

fn send(conn: &mut Conn, rsp: &Response) -> io::Result<()> {
    write_frame(conn, &rsp.pack())?;
    conn.flush()
}

fn handle_conn(mut conn: Conn, sched: Scheduler, stop: Arc<AtomicBool>) -> io::Result<()> {
    while let Some(body) = read_frame(&mut conn)? {
        let req = match Request::unpack(&body) {
            Ok(r) => r,
            Err(e) => {
                send(&mut conn, &Response::Error { msg: e.to_string() })?;
                continue;
            }
        };
        match req {
            Request::Submit { spec_json } => {
                let rsp = match JobSpec::parse(&spec_json) {
                    Err(e) => Response::Error { msg: e },
                    Ok(spec) => {
                        let key = spec.cache_key();
                        match sched.submit(spec) {
                            Ok((job, disp)) => Response::Submitted {
                                job,
                                disposition: disp.as_str().to_string(),
                                key_hi: key.0,
                                key_lo: key.1,
                            },
                            Err(e) => Response::Error { msg: e },
                        }
                    }
                };
                send(&mut conn, &rsp)?;
            }
            Request::Status { job } => {
                let rsp = match sched.status(job) {
                    Some(s) => Response::status_of(&s),
                    None => Response::Error {
                        msg: format!("no such job {job}"),
                    },
                };
                send(&mut conn, &rsp)?;
            }
            Request::Watch { job } => {
                let mut cursor = 0usize;
                loop {
                    match sched.metrics_after(job, cursor) {
                        None => {
                            send(
                                &mut conn,
                                &Response::Error {
                                    msg: format!("no such job {job}"),
                                },
                            )?;
                            break;
                        }
                        Some((frames, terminal)) => {
                            for frame in frames {
                                cursor += 1;
                                send(&mut conn, &Response::Metrics { job, frame })?;
                            }
                            if terminal {
                                send(&mut conn, &terminal_response(&sched, job))?;
                                break;
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Request::Result { job } => {
                // Long block; job runtimes are bounded by validation.
                match sched.wait(job, Duration::from_secs(3600)) {
                    None => send(
                        &mut conn,
                        &Response::Error {
                            msg: "timed out".into(),
                        },
                    )?,
                    Some(_) => send(&mut conn, &terminal_response(&sched, job))?,
                }
            }
            Request::Stats => send(&mut conn, &Response::Stats(sched.stats()))?,
            Request::Drain => {
                let clean = sched.drain(Duration::from_secs(600));
                send(&mut conn, &Response::Drained { clean })?;
            }
            Request::Shutdown => {
                let clean = sched.drain(Duration::from_secs(600));
                sched.shutdown();
                stop.store(true, Ordering::SeqCst);
                send(&mut conn, &Response::Drained { clean })?;
                break;
            }
        }
    }
    Ok(())
}

fn terminal_response(sched: &Scheduler, job: u64) -> Response {
    match sched.wait(job, Duration::from_millis(1)) {
        Some(Ok(out)) => Response::Done {
            job,
            outcome: WireOutcome::from_outcome(&out),
        },
        Some(Err(e)) => Response::Error { msg: e },
        None => Response::Error {
            msg: "job not terminal".into(),
        },
    }
}

/// Blocking client for the service protocol.
pub struct Client {
    conn: Conn,
}

impl Client {
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let conn = match endpoint {
            Endpoint::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Conn::Tcp(TcpStream::connect(addr.as_str())?),
        };
        Ok(Client { conn })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        write_frame(&mut self.conn, &req.pack()).map_err(|e| e.to_string())?;
        self.conn.flush().map_err(|e| e.to_string())?;
        self.recv()
    }

    fn recv(&mut self) -> Result<Response, String> {
        match read_frame(&mut self.conn).map_err(|e| e.to_string())? {
            None => Err("server closed the connection".into()),
            Some(body) => Response::unpack(&body).map_err(|e| e.to_string()),
        }
    }

    /// Submit a spec document; returns (job id, disposition string).
    pub fn submit(&mut self, spec_json: &str) -> Result<(u64, String), String> {
        match self.call(&Request::Submit {
            spec_json: spec_json.to_string(),
        })? {
            Response::Submitted {
                job, disposition, ..
            } => Ok((job, disposition)),
            Response::Error { msg } => Err(msg),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Block until the job finishes and return its outcome.
    pub fn result(&mut self, job: u64) -> Result<JobOutcome, String> {
        match self.call(&Request::Result { job })? {
            Response::Done { outcome, .. } => Ok(outcome.to_outcome()),
            Response::Error { msg } => Err(msg),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Stream metrics frames until the job ends; returns the frames and
    /// the terminal result.
    pub fn watch(
        &mut self,
        job: u64,
    ) -> Result<(Vec<MetricsFrame>, Result<JobOutcome, String>), String> {
        write_frame(&mut self.conn, &Request::Watch { job }.pack()).map_err(|e| e.to_string())?;
        self.conn.flush().map_err(|e| e.to_string())?;
        let mut frames = Vec::new();
        loop {
            match self.recv()? {
                Response::Metrics { frame, .. } => frames.push(frame),
                Response::Done { outcome, .. } => return Ok((frames, Ok(outcome.to_outcome()))),
                Response::Error { msg } => return Ok((frames, Err(msg))),
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
    }

    pub fn status(&mut self, job: u64) -> Result<Response, String> {
        self.call(&Request::Status { job })
    }

    pub fn stats(&mut self) -> Result<ServeStats, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Stop intake and wait for in-flight jobs; true if everything
    /// finished before the server's drain timeout.
    pub fn drain(&mut self) -> Result<bool, String> {
        match self.call(&Request::Drain)? {
            Response::Drained { clean } => Ok(clean),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Drain, stop the scheduler, and stop the accept loop.
    pub fn shutdown(&mut self) -> Result<bool, String> {
        match self.call(&Request::Shutdown)? {
            Response::Drained { clean } => Ok(clean),
            other => Err(format!("unexpected response {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerConfig;

    fn spec_json(seed: u64, steps: usize) -> String {
        format!(
            r#"{{"system": "water", "atoms": 96, "boxSize": 14, "steps": {steps}, "seed": {seed}, "migrateEvery": 4}}"#
        )
    }

    fn run_end_to_end(endpoint: Endpoint) {
        let sched = Scheduler::new(SchedulerConfig {
            pool_pes: 2,
            ..Default::default()
        });
        let server = start(&endpoint, sched).unwrap();
        let bound = server.endpoint.clone();

        let mut c = Client::connect(&bound).unwrap();
        let (a, disp_a) = c.submit(&spec_json(1, 6)).unwrap();
        assert_eq!(disp_a, "enqueued");
        // Identical spec from a second connection coalesces or hits cache.
        let mut c2 = Client::connect(&bound).unwrap();
        let (b, disp_b) = c2.submit(&spec_json(1, 6)).unwrap();
        assert_ne!(disp_b, "enqueued");

        let out_a = c.result(a).unwrap();
        let out_b = c2.result(b).unwrap();
        assert_eq!(out_a.state_crc, out_b.state_crc);
        assert_eq!(out_a.steps, 6);

        // Watch a fresh job: frames stream, then Done.
        let (w, _) = c.submit(&spec_json(2, 6)).unwrap();
        let (frames, terminal) = c.watch(w).unwrap();
        assert!(terminal.is_ok());
        assert!(!frames.is_empty());
        assert_eq!(frames.last().unwrap().step, 6);

        // Bad spec → Error, connection stays usable.
        assert!(c.submit(r#"{"stepz": 3}"#).is_err());
        let stats = c.stats().unwrap();
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.failed, 0);

        assert!(c.shutdown().unwrap());
        server.stop();
        if let Endpoint::Unix(p) = &bound {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unix_socket_end_to_end() {
        let path =
            std::env::temp_dir().join(format!("namd-serve-test-{}.sock", std::process::id()));
        run_end_to_end(Endpoint::Unix(path));
    }

    #[test]
    fn tcp_end_to_end() {
        run_end_to_end(Endpoint::Tcp("127.0.0.1:0".into()));
    }

    #[test]
    fn endpoint_parses_and_displays() {
        let e: Endpoint = "unix:/tmp/x.sock".parse().unwrap();
        assert_eq!(e.to_string(), "unix:/tmp/x.sock");
        let t: Endpoint = "tcp:127.0.0.1:8700".parse().unwrap();
        assert_eq!(t.to_string(), "tcp:127.0.0.1:8700");
        assert!("http://x".parse::<Endpoint>().is_err());
    }
}
