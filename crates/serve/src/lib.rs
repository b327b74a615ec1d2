//! A std-only HTTP/1.1 serving daemon for fitted imputation models.
//!
//! This is the network half of the workspace's learn-once / impute-millions
//! story: `iim fit --save model.iim` persists the offline phase
//! (`iim-persist`), `iim serve model.iim` loads it into a long-lived
//! process, and clients stream single tuples or batches over HTTP —
//! no re-learning on restart, no framework dependencies.
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive with request
//! pipelining — see [`http`] for the exact contract), so an interactive
//! client pays connection setup once, not per query; `Connection: close`
//! and HTTP/1.0 one-shot clients keep working unchanged.
//!
//! Each model sits behind a **read-write lock** ([`batch::Batcher`]): a
//! connection thread runs its request's imputes inline under the read
//! guard, and a request of many rows fans out on the model's
//! [`iim_exec::Pool`] under the same guard. Concurrent readers can never
//! change an answer — `impute_one` is a pure function of the fitted state
//! and the query — so the daemon's fills are **byte-identical** to
//! `iim impute` run offline on the same queries (asserted end-to-end by
//! the CI serving job).
//!
//! **Streaming ingestion** takes the write guard: `POST /learn` absorbs
//! complete tuples into the live model ([`iim_data::FittedImputer::absorb`])
//! without a refit, serialized against every impute so each served fill
//! reflects a definite prefix of the learn stream. With a
//! [`batch::CheckpointConfig`] the daemon appends absorbed tuples to the
//! snapshot as delta records, so a restart replays them instead of
//! relearning.
//!
//! # Tenants and routes
//!
//! Every model a daemon serves is a **tenant** with its own routes:
//! `POST /models/{name}/impute`, `POST /models/{name}/learn` and
//! `GET /models/{name}/info`. Single-model mode (`iim serve MODEL.iim`,
//! [`Server::bind`]) serves one tenant, named `default`. **Multi-tenant
//! registry mode** ([`registry::Registry`], `iim serve --models-dir DIR`,
//! [`Server::bind_registry`]) serves many named models from one daemon,
//! adds the admin routes `GET /models` and
//! `PUT`/`DELETE /models/{name}` (stage a new snapshot, retire one), and
//! LRU-evicts cold models under a resident cap. Hot swap replaces the
//! model inside the same write section ([`Batcher::swap`]). In both modes
//! `POST /impute` and `POST /learn` are the `default` tenant's routes, and
//! `GET /healthz` and `GET /info` describe the daemon. See [`server`] for
//! the route table and error mapping.
//!
//! # One version per response (atomicity contract)
//!
//! Every HTTP response is computed by **exactly one model version**:
//!
//! * The fills in one `/impute` response are all produced by the same
//!   fitted state — bitwise equal to `impute_one` on that state — never a
//!   mixture of pre- and post-swap (or pre- and post-learn) models.
//! * A swap or learn holds the write guard, a barrier in the request
//!   stream: responses collectively order into *some* serial interleaving
//!   of imputes, learns, and swaps. A client that saw a swap's (or
//!   learn's) response complete is guaranteed every later fill reflects
//!   it.
//! * No request is dropped by a swap, an LRU eviction, a `DELETE`, or a
//!   graceful shutdown: a request already admitted is always answered,
//!   and an evicted tenant still answers the requests holding it.
//!   Requests arriving after shutdown began get a clean `503`.
//!
//! ```no_run
//! use iim_serve::{Batcher, ServeConfig, Server};
//!
//! # fn model() -> Box<dyn iim_data::FittedImputer> { unimplemented!() }
//! // The `default` tenant: 4 pool threads, no checkpoint, the default
//! // admission cap.
//! let tenant = Batcher::start(model(), 4, None).unwrap();
//! let server = Server::bind(tenant, &ServeConfig {
//!     addr: "127.0.0.1:7878".into(),
//!     ..ServeConfig::default()
//! }).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! // Blocks. POST /impute and POST /models/default/impute answer alike:
//! // curl -sf --data-binary @queries.csv http://127.0.0.1:7878/impute
//! server.run();
//! ```

pub mod batch;
pub mod http;
pub mod registry;
pub mod server;
pub mod shutdown;

pub use batch::{
    Batcher, CheckpointConfig, LearnReply, QueryBlock, SubmitRejected, SwapReply, DEFAULT_MAX_QUEUE,
};
pub use registry::{ModelInfo, Registry, RegistryConfig, RegistryError, StageOutcome};
pub use server::{ServeConfig, Server, ServerHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::{FittedImputer, Imputer, PerAttributeImputer};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    fn fitted() -> Box<dyn FittedImputer> {
        let (rel, _) = iim_data::paper_fig1();
        PerAttributeImputer::new(iim_core::Iim::new(iim_core::IimConfig {
            k: 3,
            ..Default::default()
        }))
        .fit(&rel)
        .unwrap()
    }

    fn start() -> ServerHandle {
        serve(Batcher::start(fitted(), 2, None).unwrap())
    }

    fn start_with_schema(schema: Vec<String>) -> ServerHandle {
        let tenant = Batcher::start(fitted(), 2, None)
            .unwrap()
            .with_schema(schema.into());
        serve(tenant)
    }

    /// Serves `tenant` in single-model mode on an ephemeral port.
    fn serve(tenant: Batcher) -> ServerHandle {
        let server = Server::bind(tenant, &local()).unwrap();
        server.spawn().unwrap()
    }

    fn local() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        }
    }

    fn roundtrip(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        // Half-close: the daemon sees clean EOF at the next request
        // boundary and closes its end, which terminates read_to_string
        // (the one-shot client shape, now that connections default to
        // keep-alive).
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// Reads exactly one Content-Length-delimited response off a
    /// keep-alive connection (headers + body, as one string).
    fn read_one_response(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let (head_end, content_length) = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&buf[..pos]).unwrap();
                let cl = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.trim()
                            .eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse::<usize>().unwrap())
                    })
                    .unwrap_or(0);
                break (pos + 4, cl);
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
        };
        while buf.len() < head_end + content_length {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-body");
            buf.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(
            buf.len(),
            head_end + content_length,
            "over-read one response"
        );
        String::from_utf8(buf).unwrap()
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
        roundtrip(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn post_impute(addr: std::net::SocketAddr, body: &str) -> String {
        post(addr, "/impute", body)
    }

    #[test]
    fn health_info_and_impute_end_to_end() {
        let handle = start();
        let addr = handle.addr();
        let model = fitted(); // deterministic fit = the served model

        let health = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");

        let info = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"method\":\"IIM\""), "{info}");
        assert!(info.contains("\"arity\":2"), "{info}");
        assert!(info.contains("\"can_absorb\":true"), "{info}");
        assert!(info.contains("\"absorbed\":0"), "{info}");

        // Batch of two queries + one blank line (skipped like the CLI).
        let response = post_impute(addr, "A1,A2\n5.0,?\n\n2.0,\n");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        let mut lines = body.lines();
        assert_eq!(lines.next(), Some("A1,A2"));
        // Served bits equal direct in-process serving.
        let direct = model.impute_one(&[Some(5.0), None]).unwrap();
        let line = lines.next().unwrap();
        let served: Vec<f64> = line.split(',').map(|v| v.parse().unwrap()).collect();
        assert_eq!(served[1].to_bits(), direct[1].to_bits());

        let missing = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        handle.shutdown();
    }

    /// The keep-alive satellite, end to end: one connection carries many
    /// requests (pipelined, even), responses come back in order with
    /// `Connection: keep-alive`, and the daemon's `/info` connection
    /// counter proves no hidden reconnects happened.
    #[test]
    fn keep_alive_pipelining_and_connection_accounting() {
        let handle = start();
        let addr = handle.addr();
        let model = fitted();

        // Three requests written back-to-back on ONE connection: two
        // pipelined imputes, then an /info with Connection: close.
        let body = "A1,A2\n5.0,?\n";
        let mut raw = String::new();
        for _ in 0..2 {
            raw.push_str(&format!(
                "POST /impute HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        raw.push_str("GET /info HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        // The server closes after the third response (Connection: close),
        // so read_to_string terminates without a client-side shutdown.
        stream.read_to_string(&mut out).unwrap();

        assert_eq!(out.matches("HTTP/1.1 200").count(), 3, "{out}");
        assert_eq!(out.matches("Connection: keep-alive").count(), 2, "{out}");
        assert_eq!(out.matches("Connection: close").count(), 1, "{out}");
        // Both pipelined fills are the model's bits.
        let direct = model.impute_one(&[Some(5.0), None]).unwrap();
        assert_eq!(out.matches(&format!("5,{}", direct[1])).count(), 2, "{out}");
        // All three requests rode one accepted connection.
        assert!(out.contains("\"connections\":1"), "{out}");

        // A fresh connection bumps the counter to exactly 2.
        let info = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"connections\":2"), "{info}");

        handle.shutdown();
    }

    /// HTTP/1.0 conformance: close by default, keep-alive on request.
    #[test]
    fn http_10_defaults_to_close_and_connection_header_overrides() {
        let handle = start();
        let addr = handle.addr();

        // Plain HTTP/1.0: the daemon must answer and close unprompted.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap(); // terminates only if the server closed
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");

        // HTTP/1.0 + Connection: keep-alive: the connection survives a
        // second request.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let first = read_one_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        assert!(first.contains("Connection: keep-alive"), "{first}");
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n")
            .unwrap();
        let second = read_one_response(&mut stream);
        assert!(second.starts_with("HTTP/1.1 200"), "{second}");
        assert!(second.contains("Connection: close"), "{second}");

        handle.shutdown();
    }

    #[test]
    fn parse_and_impute_errors_are_4xx() {
        let handle = start();
        let addr = handle.addr();

        // Ragged row → 400.
        let response = post_impute(addr, "A1,A2\n1.0\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // Arity mismatch with the fitted model → 422.
        let response = post_impute(addr, "A1,A2,A3\n1.0,2.0,?\n");
        assert!(response.starts_with("HTTP/1.1 422"), "{response}");

        // Empty body → 400.
        let response = post_impute(addr, "");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        handle.shutdown();
    }

    #[test]
    fn schema_mismatch_is_rejected_before_imputing() {
        let handle = start_with_schema(vec!["lng".to_string(), "price".to_string()]);
        let addr = handle.addr();

        // Exact header → served.
        let ok = post_impute(addr, "lng,price\n5.0,?\n");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        // Reordered header (same arity!) → 400, never transposed fills.
        let bad = post_impute(addr, "price,lng\n5.0,?\n");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        assert!(bad.contains("does not match"), "{bad}");

        handle.shutdown();
    }

    #[test]
    fn duplicate_content_length_is_rejected_end_to_end() {
        let handle = start();
        let addr = handle.addr();
        // Regression: before the fix the daemon silently used the last
        // Content-Length and served a truncated (or padded) body.
        let body = "A1,A2\n5.0,?\n";
        let raw = format!(
            "POST /impute HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nContent-Length: 2\r\n\r\n{body}",
            body.len()
        );
        let response = roundtrip(addr, &raw);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("duplicate content-length"), "{response}");
        handle.shutdown();
    }

    /// Sends `raw` on a fresh connection and reads until the daemon
    /// closes it (the read times out, failing the test, if it never does).
    fn exchange_until_close(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// RFC 9112 §6.1/§6.3: a body framed by a transfer coding is refused
    /// before it is read, with exactly one response and a close — its
    /// bytes must never be parsed as a second request.
    #[test]
    fn transfer_encoding_gets_one_response_then_eof() {
        let handle = start();
        let addr = handle.addr();
        let chunks = "c\r\nA1,A2\n5.0,?\n\r\n0\r\n\r\n";

        let chunked = exchange_until_close(
            addr,
            &format!(
                "POST /impute HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n{chunks}"
            ),
        );
        assert_eq!(chunked.matches("HTTP/1.1 ").count(), 1, "{chunked}");
        assert!(chunked.starts_with("HTTP/1.1 501"), "{chunked}");
        assert!(chunked.contains("Connection: close"), "{chunked}");

        let both = exchange_until_close(
            addr,
            &format!(
                "POST /impute HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\n\
                 Transfer-Encoding: chunked\r\n\r\n{chunks}"
            ),
        );
        assert_eq!(both.matches("HTTP/1.1 ").count(), 1, "{both}");
        assert!(both.starts_with("HTTP/1.1 400"), "{both}");
        assert!(both.contains("Connection: close"), "{both}");

        handle.shutdown();
    }

    /// One `/learn` row whose square overflows must not poison the model:
    /// 422, unchanged fills, and (checkpointing every row) unchanged
    /// snapshot bytes.
    #[test]
    fn an_overflowing_learn_row_is_422_and_changes_nothing() {
        let dir = std::env::temp_dir().join(format!("iim-serve-overflow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.iim");
        iim_persist::save_path(fitted().as_ref(), &path).unwrap();
        let snapshot = std::fs::read(&path).unwrap();
        let checkpoint = CheckpointConfig {
            path: path.clone(),
            every: 1,
            truncate_to: None,
        };
        let handle = serve(Batcher::start(fitted(), 2, Some(checkpoint)).unwrap());
        let addr = handle.addr();

        let before = post_impute(addr, "A1,A2\n4.5,?\n");
        assert!(before.starts_with("HTTP/1.1 200"), "{before}");
        let bad = post(addr, "/learn", "A1,A2\n1.01,1e200\n");
        assert!(bad.starts_with("HTTP/1.1 422"), "{bad}");
        let after = post_impute(addr, "A1,A2\n4.5,?\n");
        assert_eq!(
            served_cell(&before, 1, 1).to_bits(),
            served_cell(&after, 1, 1).to_bits()
        );
        assert_eq!(std::fs::read(&path).unwrap(), snapshot);

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rows buffered under `every > 1` reach the snapshot when
    /// `ServerHandle::shutdown` returns — even while an idle keep-alive
    /// connection still holds the backend.
    #[test]
    fn shutdown_flushes_buffered_checkpoint_rows() {
        let dir = std::env::temp_dir().join(format!("iim-serve-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.iim");
        iim_persist::save_path(fitted().as_ref(), &path).unwrap();
        let checkpoint = CheckpointConfig {
            path: path.clone(),
            every: 10,
            truncate_to: None,
        };
        let handle = serve(Batcher::start(fitted(), 2, Some(checkpoint)).unwrap());
        let addr = handle.addr();

        let rows = [[4.6, 2.0], [5.4, 1.5], [0.4, 5.1]];
        for row in &rows {
            let resp = post(addr, "/learn", &format!("A1,A2\n{},{}\n", row[0], row[1]));
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        }
        let absorbed_on_disk = || {
            iim_persist::inspect(&std::fs::read(&path).unwrap())
                .unwrap()
                .absorbed_rows
        };
        assert_eq!(absorbed_on_disk(), 0, "every = 10 buffers the rows");

        // An idle keep-alive connection, its thread parked in a read.
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        assert!(read_one_response(&mut idle).starts_with("HTTP/1.1 200"));

        handle.shutdown();
        assert_eq!(absorbed_on_disk(), 3);
        let loaded = iim_persist::load_from_slice(&std::fs::read(&path).unwrap()).unwrap();
        let mut reference = fitted();
        for row in &rows {
            reference.absorb(row).unwrap();
        }
        for q in [[Some(4.5), None], [None, Some(2.0)], [Some(0.5), None]] {
            let (a, b) = (
                loaded.impute_one(&q).unwrap(),
                reference.impute_one(&q).unwrap(),
            );
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        drop(idle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn learn_end_to_end() {
        let handle = start();
        let addr = handle.addr();

        let before = post_impute(addr, "A1,A2\n4.5,?\n");
        assert!(before.starts_with("HTTP/1.1 200"), "{before}");

        // A complete tuple absorbs; an incomplete one is a 400 and must
        // not touch the model.
        let bad = post(addr, "/learn", "A1,A2\n4.6,?\n");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        assert!(bad.contains("complete"), "{bad}");

        let ok = post(addr, "/learn", "A1,A2\n4.6,2.0\n5.4,1.5\n");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(ok.contains("\"absorbed\":2"), "{ok}");
        assert!(ok.contains("\"total_absorbed\":2"), "{ok}");

        let info = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"absorbed\":2"), "{info}");

        // Fills served after the learn reflect it, matching a reference
        // model that absorbed the same rows in the same order.
        let mut reference = fitted();
        reference.absorb(&[4.6, 2.0]).unwrap();
        reference.absorb(&[5.4, 1.5]).unwrap();
        let after = post_impute(addr, "A1,A2\n4.5,?\n");
        let direct = reference.impute_one(&[Some(4.5), None]).unwrap();
        let body = after.split("\r\n\r\n").nth(1).unwrap();
        let served: Vec<f64> = body
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(served[1].to_bits(), direct[1].to_bits());
        assert_ne!(before, after);

        handle.shutdown();
    }

    /// Satellite hardening test: hammer the daemon with concurrent
    /// `/learn` and `/impute` requests from many connections. Learns are
    /// barriers in the batcher, so every served fill must be bitwise
    /// equal to the fill produced by *some* serial prefix of the learn
    /// stream — the responses collectively certify that concurrency never
    /// invented a state no serial absorb/impute sequence could reach.
    #[test]
    fn concurrent_learns_and_imputes_match_a_serial_interleaving() {
        let handle = start();
        let addr = handle.addr();
        let learns: Vec<[f64; 2]> = vec![[4.6, 2.0], [5.4, 1.5], [0.4, 5.1], [9.5, 2.6]];

        // Reference fills for the query after each serial prefix of the
        // learn stream: stage 0 = no absorbs, stage d = all d absorbs.
        let query = [Some(4.5), None];
        let mut reference = fitted();
        let mut stages: Vec<u64> = vec![reference.impute_one(&query).unwrap()[1].to_bits()];
        for row in &learns {
            reference.absorb(row).unwrap();
            stages.push(reference.impute_one(&query).unwrap()[1].to_bits());
        }

        // One thread streams the learns in order (so the absorb sequence
        // is exactly `learns`); eight threads hammer imputes meanwhile.
        std::thread::scope(|scope| {
            let learner = scope.spawn(move || {
                for row in &learns {
                    let resp = post(addr, "/learn", &format!("A1,A2\n{},{}\n", row[0], row[1]));
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                }
            });
            for _ in 0..8 {
                let stages = stages.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        let resp = post_impute(addr, "A1,A2\n4.5,?\n");
                        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                        let body = resp.split("\r\n\r\n").nth(1).unwrap();
                        let served: f64 = body
                            .lines()
                            .nth(1)
                            .unwrap()
                            .split(',')
                            .nth(1)
                            .unwrap()
                            .parse()
                            .unwrap();
                        assert!(
                            stages.contains(&served.to_bits()),
                            "fill {served} matches no serial learn prefix"
                        );
                    }
                });
            }
            learner.join().unwrap();
        });

        // After every connection drained, the daemon is at the final stage.
        let last = post_impute(addr, "A1,A2\n4.5,?\n");
        let body = last.split("\r\n\r\n").nth(1).unwrap();
        let served: f64 = body
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(served.to_bits(), *stages.last().unwrap());

        handle.shutdown();
    }

    #[test]
    fn unknown_routes_are_structured_404s_and_wrong_methods_405s() {
        let handle = start();
        let addr = handle.addr();

        // Unknown path → 404 with a structured JSON body.
        let resp = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("application/json"), "{resp}");
        assert!(resp.contains("\"error\":\"not_found\""), "{resp}");
        assert!(resp.contains("GET /nope"), "{resp}");

        // Known path, wrong method → 405 with an Allow header.
        for (raw, allow) in [
            (
                "POST /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
                "GET",
            ),
            ("DELETE /info HTTP/1.1\r\nHost: t\r\n\r\n", "GET"),
            ("GET /impute HTTP/1.1\r\nHost: t\r\n\r\n", "POST"),
            (
                "PUT /learn HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
                "POST",
            ),
        ] {
            let resp = roundtrip(addr, raw);
            assert!(resp.starts_with("HTTP/1.1 405"), "{raw} → {resp}");
            assert!(resp.contains(&format!("Allow: {allow}")), "{raw} → {resp}");
            assert!(resp.contains("\"error\":\"method_not_allowed\""), "{resp}");
        }

        // Registry routes in single-model mode are 404 (with a hint), not
        // a crash or a silent 200.
        let resp = roundtrip(addr, "GET /models HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("registry mode"), "{resp}");

        // /info reports the single-model mode and snapshot version.
        let info = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"mode\":\"single\""), "{info}");
        assert!(
            info.contains(&format!(
                "\"snapshot_version\":{}",
                iim_persist::FORMAT_VERSION
            )),
            "{info}"
        );

        handle.shutdown();
    }

    fn fitted_k(k: usize) -> Box<dyn FittedImputer> {
        let (rel, _) = iim_data::paper_fig1();
        PerAttributeImputer::new(iim_core::Iim::new(iim_core::IimConfig {
            k,
            ..Default::default()
        }))
        .fit(&rel)
        .unwrap()
    }

    fn snapshot_k(k: usize) -> Vec<u8> {
        iim_persist::save_to_vec_with_schema(
            fitted_k(k).as_ref(),
            &["A1".to_string(), "A2".to_string()],
        )
        .unwrap()
    }

    fn start_registry(tag: &str, max_resident: usize) -> (ServerHandle, std::path::PathBuf) {
        let dir = registry_dir(tag);
        let registry = Registry::open(RegistryConfig {
            dir: dir.clone(),
            max_resident,
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let server = Server::bind_registry(registry, &local()).unwrap();
        (server.spawn().unwrap(), dir)
    }

    /// A fresh, empty registry directory.
    fn registry_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iim-serve-registry-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn put(addr: std::net::SocketAddr, path: &str, body: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!(
                    "PUT {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        stream.write_all(body).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn served_cell(resp: &str, line: usize, col: usize) -> f64 {
        resp.split("\r\n\r\n")
            .nth(1)
            .unwrap()
            .lines()
            .nth(line)
            .unwrap()
            .split(',')
            .nth(col)
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn registry_end_to_end_over_http() {
        let (handle, dir) = start_registry("e2e", 4);
        let addr = handle.addr();

        // Empty registry: summary info + empty list + 404 for a ghost.
        let info = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"mode\":\"registry\""), "{info}");
        assert!(info.contains("\"models\":0"), "{info}");
        let list = roundtrip(addr, "GET /models HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(list.contains("\"models\":[]"), "{list}");
        let ghost = post(addr, "/models/ghost/impute", "A1,A2\n5.0,?\n");
        assert!(ghost.starts_with("HTTP/1.1 404"), "{ghost}");
        assert!(ghost.contains("\"error\":\"unknown_model\""), "{ghost}");
        // /impute is the `default` tenant's route: unknown until staged,
        // then byte-equal to /models/default/impute.
        let alias = post_impute(addr, "A1,A2\n5.0,?\n");
        assert!(alias.starts_with("HTTP/1.1 404"), "{alias}");
        assert!(alias.contains("\"error\":\"unknown_model\""), "{alias}");
        let staged = put(addr, "/models/default", &snapshot_k(3));
        assert!(staged.starts_with("HTTP/1.1 200"), "{staged}");
        let alias = post_impute(addr, "A1,A2\n5.0,?\n");
        assert!(alias.starts_with("HTTP/1.1 200"), "{alias}");
        assert_eq!(
            alias,
            post(addr, "/models/default/impute", "A1,A2\n5.0,?\n")
        );

        // Stage two tenants and serve both; fills match direct serving.
        let staged = put(addr, "/models/alpha", &snapshot_k(3));
        assert!(staged.starts_with("HTTP/1.1 200"), "{staged}");
        assert!(staged.contains("\"swapped\":false"), "{staged}");
        let staged = put(addr, "/models/beta", &snapshot_k(2));
        assert!(staged.starts_with("HTTP/1.1 200"), "{staged}");

        let a = post(addr, "/models/alpha/impute", "A1,A2\n5.0,?\n");
        assert!(a.starts_with("HTTP/1.1 200"), "{a}");
        let b = post(addr, "/models/beta/impute", "A1,A2\n5.0,?\n");
        assert!(b.starts_with("HTTP/1.1 200"), "{b}");
        let direct_a = fitted_k(3).impute_one(&[Some(5.0), None]).unwrap();
        let direct_b = fitted_k(2).impute_one(&[Some(5.0), None]).unwrap();
        assert_eq!(served_cell(&a, 1, 1).to_bits(), direct_a[1].to_bits());
        assert_eq!(served_cell(&b, 1, 1).to_bits(), direct_b[1].to_bits());

        // Per-model info carries version, residency, and schema.
        let card = roundtrip(addr, "GET /models/alpha/info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(card.contains("\"resident\":true"), "{card}");
        assert!(
            card.contains(&format!(
                "\"snapshot_version\":{}",
                iim_persist::FORMAT_VERSION
            )),
            "{card}"
        );
        assert!(card.contains("\"schema\":[\"A1\",\"A2\"]"), "{card}");

        // Learns are per-tenant and reported by info.
        let learn = post(addr, "/models/alpha/learn", "A1,A2\n4.6,2.0\n");
        assert!(learn.starts_with("HTTP/1.1 200"), "{learn}");
        let card = roundtrip(addr, "GET /models/alpha/info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(card.contains("\"absorbed\":1"), "{card}");
        let card = roundtrip(addr, "GET /models/beta/info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(card.contains("\"absorbed\":0"), "{card}");

        // Schema guard: reordered header is a 400, not transposed fills.
        let bad = post(addr, "/models/alpha/impute", "A2,A1\n?,5.0\n");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        assert!(bad.contains("\"error\":\"schema_mismatch\""), "{bad}");

        // Garbage snapshots are rejected with a 422, registry unchanged.
        let garbage = put(addr, "/models/alpha", b"not a snapshot");
        assert!(garbage.starts_with("HTTP/1.1 422"), "{garbage}");
        assert!(
            garbage.contains("\"error\":\"snapshot_rejected\""),
            "{garbage}"
        );

        // Delete drains and 404s afterwards.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"DELETE /models/beta HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        let gone = post(addr, "/models/beta/impute", "A1,A2\n5.0,?\n");
        assert!(gone.starts_with("HTTP/1.1 404"), "{gone}");

        // Registry-mode 405s carry Allow.
        let resp = post(addr, "/models", "");
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        assert!(resp.contains("Allow: GET"), "{resp}");

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The tentpole property test: hammer one registry model with
    /// concurrent imputes and learns **while hot-swapping it between two
    /// versions**. Every response must be served — zero drops — and every
    /// impute batch must be bitwise the output of exactly one reachable
    /// model state: (version A or B) plus some number of absorbed learn
    /// tuples since that version was staged. Both cells of the two-row
    /// batch must come from the *same* state — a response mixing versions
    /// would be the atomicity violation this test exists to catch.
    #[test]
    fn hot_swap_under_load_serves_exactly_one_version_per_response() {
        let (handle, dir) = start_registry("swap-load", 2);
        let addr = handle.addr();
        let bytes_a = snapshot_k(3);
        let bytes_b = snapshot_k(2);
        assert!(put(addr, "/models/m", &bytes_a).starts_with("HTTP/1.1 200"));
        // Touch the model so it is resident: every PUT below then
        // exercises the live hot-swap path, not the cold-file rename.
        assert!(post(addr, "/models/m/impute", "A1,A2\n4.5,?\n").starts_with("HTTP/1.1 200"));

        // The learner absorbs the same tuple repeatedly, so the reachable
        // states enumerate as (version, absorb count since stage): a swap
        // resets the count (the staged snapshots carry no deltas).
        const LEARNS: usize = 4;
        let learn_row = [4.6, 2.0];
        let queries = [[Some(4.5), None], [Some(2.0), None]];
        let mut state_pairs: Vec<(u64, u64)> = Vec::new();
        for k in [3, 2] {
            for j in 0..=LEARNS {
                let mut model = fitted_k(k);
                for _ in 0..j {
                    model.absorb(&learn_row).unwrap();
                }
                state_pairs.push((
                    model.impute_one(&queries[0]).unwrap()[1].to_bits(),
                    model.impute_one(&queries[1]).unwrap()[1].to_bits(),
                ));
            }
        }

        std::thread::scope(|scope| {
            // Swapper: alternate between the two versions under load.
            let swapper = scope.spawn(|| {
                for i in 0..6 {
                    let bytes = if i % 2 == 0 { &bytes_b } else { &bytes_a };
                    let resp = put(addr, "/models/m", bytes);
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                    assert!(resp.contains("\"swapped\":true"), "{resp}");
                }
            });
            // Learner: a serial stream of absorbs of the same tuple.
            let learner = scope.spawn(move || {
                for _ in 0..LEARNS {
                    let resp = post(addr, "/models/m/learn", "A1,A2\n4.6,2.0\n");
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                }
            });
            // Eight impute hammers: every response must be one state.
            for _ in 0..8 {
                let state_pairs = state_pairs.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        let resp = post(addr, "/models/m/impute", "A1,A2\n4.5,?\n2.0,?\n");
                        assert!(resp.starts_with("HTTP/1.1 200"), "no drops allowed: {resp}");
                        let pair = (
                            served_cell(&resp, 1, 1).to_bits(),
                            served_cell(&resp, 2, 1).to_bits(),
                        );
                        assert!(
                            state_pairs.contains(&pair),
                            "response mixes versions or matches no serial state"
                        );
                    }
                });
            }
            swapper.join().unwrap();
            learner.join().unwrap();
        });

        // Quiesced: the served state is the last staged version plus the
        // learns that landed after the final swap — still exactly one of
        // the enumerated states.
        let resp = post(addr, "/models/m/impute", "A1,A2\n4.5,?\n2.0,?\n");
        let pair = (
            served_cell(&resp, 1, 1).to_bits(),
            served_cell(&resp, 2, 1).to_bits(),
        );
        assert!(state_pairs.contains(&pair));

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Single-model mode is the one-tenant case: the `default` tenant's
    /// routes answer exactly as `/impute` and `/learn` do, and no other
    /// tenant exists.
    #[test]
    fn single_mode_serves_the_default_tenant_routes() {
        let handle = start_with_schema(vec!["A1".to_string(), "A2".to_string()]);
        let addr = handle.addr();
        let body = "A1,A2\n5.0,?\n2.0,\n";

        let alias = post_impute(addr, body);
        assert!(alias.starts_with("HTTP/1.1 200"), "{alias}");
        assert_eq!(alias, post(addr, "/models/default/impute", body));

        let learned = post(addr, "/models/default/learn", "A1,A2\n4.6,2.0\n");
        assert!(learned.contains("\"total_absorbed\":1"), "{learned}");
        let learned = post(addr, "/learn", "A1,A2\n5.4,1.5\n");
        assert!(learned.contains("\"total_absorbed\":2"), "{learned}");

        let card = roundtrip(addr, "GET /models/default/info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(card.starts_with("HTTP/1.1 200"), "{card}");
        assert!(card.contains("\"name\":\"default\""), "{card}");
        assert!(card.contains("\"absorbed\":2"), "{card}");
        assert!(card.contains("\"schema\":[\"A1\",\"A2\"]"), "{card}");

        let ghost = post(addr, "/models/ghost/impute", body);
        assert!(ghost.starts_with("HTTP/1.1 404"), "{ghost}");
        assert!(ghost.contains("\"error\":\"unknown_model\""), "{ghost}");
        let wrong = roundtrip(
            addr,
            "GET /models/default/impute HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert!(wrong.starts_with("HTTP/1.1 405"), "{wrong}");
        assert!(wrong.contains("Allow: POST"), "{wrong}");

        handle.shutdown();
    }

    #[test]
    fn info_reports_the_limits_the_single_tenant_enforces() {
        let tenant = Batcher::start(fitted(), 3, None).unwrap();
        tenant.set_max_queue(5);
        let handle = serve(tenant);
        let info = roundtrip(handle.addr(), "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"threads\":3"), "{info}");
        assert!(info.contains("\"max_queue\":5"), "{info}");
        handle.shutdown();
    }

    #[test]
    fn info_reports_the_limits_registry_tenants_enforce() {
        let dir = registry_dir("limits");
        let registry = Registry::open(RegistryConfig {
            dir: dir.clone(),
            threads: 3,
            max_queue: 5,
            ..Default::default()
        })
        .unwrap();
        let server = Server::bind_registry(Arc::clone(&registry), &local()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();
        assert!(put(addr, "/models/m", &snapshot_k(3)).starts_with("HTTP/1.1 200"));
        assert!(post(addr, "/models/m/impute", "A1,A2\n5.0,?\n").starts_with("HTTP/1.1 200"));

        let tenant = registry.tenant("m").unwrap();
        assert_eq!((tenant.threads(), tenant.max_queue()), (3, 5));
        let info = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"threads\":3"), "{info}");
        assert!(info.contains("\"max_queue\":5"), "{info}");

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serves the paper-fig1 IIM model, except that a query whose `A1`
    /// is 13 panics.
    struct PanicsOn13(Box<dyn FittedImputer>);

    impl FittedImputer for PanicsOn13 {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn arity(&self) -> usize {
            self.0.arity()
        }
        fn impute_one(&self, row: &iim_data::RowOpt) -> batch::RowResult {
            assert_ne!(row[0], Some(13.0), "model bug");
            self.0.impute_one(row)
        }
    }

    #[test]
    fn a_read_side_panic_answers_500_and_the_tenant_keeps_serving() {
        let handle = serve(Batcher::start(Box::new(PanicsOn13(fitted())), 2, None).unwrap());
        let addr = handle.addr();
        let fill = fitted().impute_one(&[Some(4.5), None]).unwrap();
        let reference = format!("A1,A2\n{}\n", iim_data::csv::format_row(&fill));

        let bad = post_impute(addr, "A1,A2\n13,?\n");
        assert!(bad.starts_with("HTTP/1.1 500"), "{bad}");
        assert!(bad.contains("\"error\":\"internal\""), "{bad}");
        let good = post_impute(addr, "A1,A2\n4.5,?\n");
        assert!(good.starts_with("HTTP/1.1 200"), "{good}");
        assert_eq!(good.split("\r\n\r\n").nth(1), Some(reference.as_str()));

        handle.shutdown();
    }

    #[test]
    fn graceful_shutdown_flag_round_trips() {
        assert!(!shutdown::requested());
        shutdown::install(); // idempotent, must not disturb the process
        shutdown::request();
        assert!(shutdown::requested());
        shutdown::wait(); // returns immediately once requested
    }

    #[test]
    fn learn_on_an_absorb_free_model_is_422() {
        let (rel, _) = iim_data::paper_fig1();
        let knn = PerAttributeImputer::new(iim_baselines::knn::Knn::new(3))
            .fit(&rel)
            .unwrap();
        let handle = serve(Batcher::start(knn, 1, None).unwrap());
        let addr = handle.addr();

        let info = roundtrip(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(info.contains("\"can_absorb\":false"), "{info}");
        let resp = post(addr, "/learn", "A1,A2\n1.0,2.0\n");
        assert!(resp.starts_with("HTTP/1.1 422"), "{resp}");

        handle.shutdown();
    }
}
