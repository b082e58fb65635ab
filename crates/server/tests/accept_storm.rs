//! EMFILE regression: when `accept` fails because the process is out
//! of file descriptors, the server must count the error and pause only
//! *accepting* — never the event loop — so connected clients keep
//! being served. Runs alone in this file because `RLIMIT_NOFILE` is
//! process-wide.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_proto::EngineHost;
use dds_reactor::sys::{nofile_limit, set_nofile_limit};
use dds_server::{Client, Server, ServerConfig};
use dds_sim::Element;

/// Highest fd currently open in this process.
fn max_open_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| e.ok()?.file_name().into_string().ok()?.parse::<u64>().ok())
        .max()
        .expect("at least stdio is open")
}

fn accept_errors(server: &Server) -> u64 {
    server
        .telemetry()
        .render_text()
        .lines()
        .find(|l| l.starts_with("server_accept_errors_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn emfile_storm_is_counted_and_does_not_stall_connected_clients() {
    let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 11);
    let engine = Engine::spawn(EngineConfig::new(spec));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    // Connect (and warm) the healthy client while fds are plentiful.
    let healthy = Client::connect_tcp(addr).expect("healthy connect");
    healthy.observe(TenantId(1), Element(1)).expect("ingest");
    healthy.flush().expect("barrier");

    // Densify the fd table so every number below the ceiling is taken,
    // then clamp the soft limit right above the top: no new fd can be
    // created by anyone in this process.
    let mut fillers: Vec<File> = (0..32)
        .map(|_| File::open("/").expect("filler fd"))
        .collect();
    let (orig_soft, _) = nofile_limit().expect("read rlimit");
    let ceiling = max_open_fd() + 1;
    set_nofile_limit(ceiling).expect("lower rlimit");

    // Free exactly one slot and spend it on a client-side connect. The
    // kernel completes the handshake in the listen backlog, but the
    // server's accept needs a *second* slot — and gets EMFILE.
    drop(fillers.pop());
    let stalled = TcpStream::connect(addr).expect("connect rides the freed fd");

    // The storm is counted, and the already-connected client keeps
    // making full round trips the whole time.
    let storm_start = Instant::now();
    let deadline = storm_start + Duration::from_secs(5);
    let mut seen_errors = 0;
    while seen_errors == 0 {
        assert!(Instant::now() < deadline, "no accept error counted");
        healthy
            .observe(TenantId(1), Element(2))
            .expect("ingest during storm");
        healthy.flush().expect("barrier during storm");
        assert!(
            !healthy
                .snapshot(TenantId(1))
                .expect("snapshot during storm")
                .is_empty(),
            "connected client starved during an accept storm"
        );
        if !dds_obs::IS_NOOP {
            seen_errors = accept_errors(&server);
        } else if storm_start.elapsed() >= Duration::from_millis(100) {
            // Telemetry compiled out: no counter to wait for, so ten
            // accept backoffs' worth of round trips stand in for it.
            break;
        }
    }

    // Recovery: restore the limit; the paused listener resumes, drains
    // the backlog, and brand-new connections are served again.
    set_nofile_limit(orig_soft).expect("restore rlimit");
    drop(fillers);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Client::connect_tcp(addr) {
            Ok(late) => {
                late.metrics().expect("served after recovery");
                break;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("server never recovered from the storm: {e}"),
        }
    }
    drop(stalled);
    if !dds_obs::IS_NOOP {
        assert!(accept_errors(&server) >= seen_errors);
    }
    let _ = server.shutdown();
}
