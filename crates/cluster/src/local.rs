//! Ready-made deployments for tests, examples, and benchmarks.
//!
//! [`LocalCluster`] runs the coordinator and `k` site daemons on
//! threads inside one process, talking over real TCP loopback sockets —
//! the exact code paths of a multi-process deployment, minus the
//! `fork`. [`ProcessCluster`] goes all the way: it spawns the
//! `dds-cluster-node` binary once per node and drives the resulting
//! k+1 OS processes over the wire. Tests use `ProcessCluster` with
//! `env!("CARGO_BIN_EXE_dds-cluster-node")`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

use dds_proto::cluster::{ClusterError, ClusterSpec, ClusterStats};
use dds_server::net::{Endpoint, Listener};
use dds_sim::SiteId;

use crate::coordinator::ClusterCoordinator;
use crate::handle::ClusterHandle;
use crate::site::SiteDaemon;

fn transport(e: std::io::Error) -> ClusterError {
    ClusterError::Transport(e.to_string())
}

/// A whole deployment on loopback TCP inside one process: the
/// coordinator's event-loop thread + one serving [`SiteDaemon`] thread
/// per site.
pub struct LocalCluster {
    coordinator: Option<ClusterCoordinator>,
    site_threads: Vec<JoinHandle<Result<(), ClusterError>>>,
    handle: Option<ClusterHandle>,
}

impl LocalCluster {
    /// Boot a coordinator and `spec.k` site daemons on ephemeral
    /// loopback ports and connect a driver handle to all of them.
    ///
    /// # Errors
    /// Bind/connect failures or a handshake rejection.
    pub fn spawn(spec: ClusterSpec) -> Result<LocalCluster, ClusterError> {
        let coordinator = ClusterCoordinator::bind_tcp("127.0.0.1:0", spec).map_err(transport)?;
        let coord_endpoint = coordinator.endpoint();
        let mut site_endpoints = Vec::with_capacity(spec.k);
        let mut site_threads = Vec::with_capacity(spec.k);
        for i in 0..spec.k {
            // Bind the driver listener *here* so the endpoint is
            // dialable before the daemon thread has even started.
            let listener = Listener::bind_tcp("127.0.0.1:0").map_err(transport)?;
            site_endpoints.push(listener.endpoint());
            let coord_endpoint = coord_endpoint.clone();
            site_threads.push(std::thread::spawn(move || {
                let daemon = SiteDaemon::connect(&coord_endpoint, SiteId(i), &spec)?;
                daemon.serve(&listener)
            }));
        }
        let handle = ClusterHandle::connect(&coord_endpoint, &site_endpoints, &spec)?;
        Ok(LocalCluster {
            coordinator: Some(coordinator),
            site_threads,
            handle: Some(handle),
        })
    }

    /// The driver handle.
    pub fn handle(&mut self) -> &mut ClusterHandle {
        self.handle.as_mut().expect("handle taken by shutdown")
    }

    /// Graceful teardown: sites leave, the coordinator stops, every
    /// thread is joined. Returns the coordinator's final stats.
    ///
    /// # Errors
    /// The first teardown error; the cluster is torn down regardless.
    pub fn shutdown(mut self) -> Result<ClusterStats, ClusterError> {
        let outcome = self.handle.take().expect("handle").shutdown();
        let coordinator = self.coordinator.take().expect("coordinator");
        let stats = coordinator.shutdown();
        for thread in self.site_threads.drain(..) {
            let _ = thread.join();
        }
        outcome.map(|()| stats)
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        // Dropping the handle EOFs every driver connection, which ends
        // each daemon's serve loop; the coordinator stops in its own
        // Drop. Joining here keeps threads from outliving the test.
        drop(self.handle.take());
        drop(self.coordinator.take());
        for thread in self.site_threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A deployment of real OS processes: one `dds-cluster-node
/// coordinator` child plus `k` `dds-cluster-node site` children, driven
/// over TCP.
pub struct ProcessCluster {
    coordinator: Option<Child>,
    sites: Vec<Option<Child>>,
    handle: Option<ClusterHandle>,
}

impl ProcessCluster {
    /// Spawn `k + 1` node processes from the `dds-cluster-node` binary
    /// at `bin` and connect a driver handle. Each child prints
    /// `LISTEN <addr>` on stdout once bound; this call blocks until all
    /// have.
    ///
    /// # Errors
    /// Spawn/handshake failures (children already started are killed).
    pub fn spawn(bin: impl AsRef<Path>, spec: ClusterSpec) -> Result<ProcessCluster, ClusterError> {
        let bin = bin.as_ref();
        let hex = spec.to_hex();
        let mut cluster = ProcessCluster {
            coordinator: None,
            sites: Vec::with_capacity(spec.k),
            handle: None,
        };
        let (child, coord_addr) =
            spawn_node(Command::new(bin).args(["coordinator", &hex, "127.0.0.1:0"]))?;
        cluster.coordinator = Some(child);
        let mut site_endpoints = Vec::with_capacity(spec.k);
        for i in 0..spec.k {
            let (child, addr) = spawn_node(Command::new(bin).args([
                "site",
                &i.to_string(),
                &hex,
                &coord_addr,
                "127.0.0.1:0",
            ]))?;
            cluster.sites.push(Some(child));
            site_endpoints.push(parse_endpoint(&addr)?);
        }
        let coord_endpoint = parse_endpoint(&coord_addr)?;
        cluster.handle = Some(ClusterHandle::connect(
            &coord_endpoint,
            &site_endpoints,
            &spec,
        )?);
        Ok(cluster)
    }

    /// The driver handle.
    pub fn handle(&mut self) -> &mut ClusterHandle {
        self.handle.as_mut().expect("handle taken by shutdown")
    }

    /// Kill site `site`'s OS process outright — no `Leave`, no flush, a
    /// real mid-stream death for fault testing.
    ///
    /// # Errors
    /// Propagates `kill` failures.
    pub fn kill_site(&mut self, site: SiteId) -> Result<(), ClusterError> {
        let child = self
            .sites
            .get_mut(site.0)
            .and_then(Option::as_mut)
            .ok_or(ClusterError::UnknownSite(site))?;
        child.kill().map_err(transport)?;
        let _ = child.wait();
        Ok(())
    }

    /// Graceful teardown: sites leave, the coordinator stops, all
    /// children are reaped.
    ///
    /// # Errors
    /// The first teardown error; children are reaped regardless.
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        let outcome = self.handle.take().expect("handle").shutdown();
        for child in self.sites.iter_mut().flatten() {
            let _ = child.wait();
        }
        if let Some(mut child) = self.coordinator.take() {
            let _ = child.wait();
        }
        self.sites.clear();
        outcome
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        drop(self.handle.take());
        for child in self.sites.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(mut child) = self.coordinator.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Start one node process and read its `LISTEN <addr>` line.
fn spawn_node(command: &mut Command) -> Result<(Child, String), ClusterError> {
    let mut child = command.stdout(Stdio::piped()).spawn().map_err(transport)?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    match lines.next() {
        Some(Ok(line)) => match line.strip_prefix("LISTEN ") {
            Some(addr) => Ok((child, addr.to_string())),
            None => {
                let _ = child.kill();
                Err(ClusterError::Protocol(format!(
                    "node announced {line:?}, expected LISTEN <addr>"
                )))
            }
        },
        Some(Err(e)) => {
            let _ = child.kill();
            Err(transport(e))
        }
        None => {
            let _ = child.kill();
            Err(ClusterError::Transport(
                "node exited before announcing its address".into(),
            ))
        }
    }
}

fn parse_endpoint(addr: &str) -> Result<Endpoint, ClusterError> {
    addr.parse()
        .map(Endpoint::Tcp)
        .map_err(|e| ClusterError::Format(format!("bad node address {addr:?}: {e}")))
}
