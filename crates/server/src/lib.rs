//! `cdb-server`: an HTTP/1.1 + JSON query service over
//! [`SpatialDatabase`], built on `std::net` with a worker threadpool and a
//! hand-rolled JSON module — no framework dependencies, because the build
//! environment has none.
//!
//! # Shape
//!
//! * [`json`] — value tree, serializer, recursive-descent parser with
//!   depth limits (object fields keep insertion order, so responses are
//!   byte-reproducible).
//! * [`http`] — request reading (size-capped) and response writing.
//! * [`config`] — bind address, worker count, request limits, default and
//!   per-relation [`QueryBudget`](cdb_sampler::QueryBudget) specs.
//! * [`error`] — [`AppError`] and the
//!   `SpatialDbError → status` mapping table.
//! * [`api_types`] — request/response structs and their JSON codecs.
//! * [`handlers`] — routing + per-endpoint pipelines over the
//!   [`SpatialDatabase::query`] surface.
//! * [`metrics`] — per-endpoint counters and latency accumulators.
//! * [`pool`] — the worker threadpool.
//! * [`client`] — a blocking loopback client for tests and the bench
//!   harness's HTTP transport.
//!
//! # Endpoints
//!
//! | method + path          | purpose                                   |
//! |------------------------|-------------------------------------------|
//! | `GET /health`          | liveness                                  |
//! | `GET /v1/stats`        | per-endpoint metrics + store stats        |
//! | `POST /v1/relations`   | insert a relation (box / boxes / formula) |
//! | `POST /v1/sample`      | one almost-uniform point                  |
//! | `POST /v1/sample-batch`| `n` points, optional partial mode         |
//! | `POST /v1/volume`      | `(ε, δ)` volume (median of repeats)       |
//! | `POST /v1/reconstruct` | approximate query reconstruction          |
//!
//! Seeded requests (`"seed"`, optional `"stream"`) are reproducible
//! byte-for-byte; see [`handlers`] for the stream discipline that makes
//! HTTP responses bitwise comparable with in-process results.

pub mod api_types;
pub mod client;
pub mod config;
pub mod error;
pub mod handlers;
pub mod http;
pub mod json;
pub mod metrics;
pub mod pool;

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cdb_core::SpatialDatabase;

pub use config::{BudgetSpec, ServerConfig};
pub use error::AppError;

use handlers::AppState;
use http::ReadError;
use metrics::Metrics;
use pool::Pool;

/// A running server: owns the accept thread and the worker pool, and shuts
/// down gracefully on [`Server::shutdown`] or drop.
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over a fresh [`SpatialDatabase`] (store capacity
    /// from the config, when set).
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let db = match config.store_capacity {
            Some(capacity) => SpatialDatabase::new().with_store_capacity(capacity),
            None => SpatialDatabase::new(),
        };
        Server::start_with_db(config, db)
    }

    /// Starts a server over an existing database (the test and loopback
    /// entry point: insert relations first, then serve them).
    pub fn start_with_db(config: ServerConfig, db: SpatialDatabase) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let pool = Pool::new(config.workers);
        let state = Arc::new(AppState {
            db: std::sync::RwLock::new(db),
            workers: pool.size(),
            config,
            metrics: Metrics::default(),
            started: Instant::now(),
        });
        let stop = Arc::new(AtomicBool::new(false));

        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("cdb-server-accept".to_string())
            .spawn(move || {
                // `pool` lives (and joins) here: when the accept loop
                // breaks, dropping the pool drains in-flight connections.
                let pool = pool;
                for connection in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = connection else { continue };
                    let state = Arc::clone(&accept_state);
                    let stop = Arc::clone(&accept_stop);
                    pool.submit(move || serve_connection(&state, &stop, stream));
                }
            })?;

        Ok(Server {
            addr,
            state,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with the default `127.0.0.1:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (tests inspect metrics through `/v1/stats` instead;
    /// this is for embedding).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops accepting, drains in-flight connections, and joins every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `incoming()`; poke it awake so it
        // observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's keep-alive session: read → route → respond, until the
/// client closes, idles past the read timeout, the server shuts down, or
/// the client sends something fatal.
///
/// The socket read timeout is a short poll tick, not the configured idle
/// timeout: between requests the worker wakes every tick to check the
/// shutdown flag, so a parked keep-alive connection never blocks a
/// graceful shutdown for the full idle window.
fn serve_connection(state: &Arc<AppState>, stop: &AtomicBool, stream: TcpStream) {
    let poll = std::time::Duration::from_millis(200).min(state.config.read_timeout);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_write_timeout(Some(state.config.read_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut idle = std::time::Duration::ZERO;

    loop {
        let request = match http::read_request(&mut reader, state.config.max_body_bytes) {
            Ok(request) => {
                idle = std::time::Duration::ZERO;
                request
            }
            Err(ReadError::Idle) => {
                idle += poll;
                if stop.load(Ordering::SeqCst) || idle >= state.config.read_timeout {
                    return;
                }
                continue;
            }
            Err(error) => {
                // A rejected request is answered and the connection closed
                // (an oversized body still sits unread on the wire); a
                // closed or failed socket just ends the session.
                if let Some(rejection) = error.rejection() {
                    state.metrics.record_rejection();
                    let body = rejection.to_json().render();
                    let _ = http::write_response(&mut write_half, rejection.status, &body, true);
                }
                return;
            }
        };

        let close = request.wants_close();
        let started = Instant::now();
        let routed = handlers::handle(state, &request);
        let (status, body) = match &routed.result {
            Ok(json) => (200, json.render()),
            Err(error) => (error.status, error.to_json().render()),
        };
        if routed.endpoint.is_empty() {
            state.metrics.record_rejection();
        } else {
            state
                .metrics
                .record(routed.endpoint, started, routed.result.is_ok());
        }
        if http::write_response(&mut write_half, status, &body, close).is_err() || close {
            return;
        }
    }
}
