//! The `daemon-mesh-uds` workload: `gcs-node` daemons over Unix sockets,
//! with the benchmark joining the cluster as one more virtual node.
//!
//! The benchmark hosts an observer [`NodeCore`] of its own and connects
//! once to every daemon, so it floods and merges like any member. What it
//! receives gives the transit times, the flood schedule and the mesh
//! check; `/proc/<pid>` gives the daemons' CPU time and peak memory; the
//! daemons' status lines give the logical skew. The traffic crosses
//! Unix-socket loopback on one host, not a network link.
//!
//! Hygiene: sockets and daemon output live in a fresh directory that is
//! removed afterwards; the daemons are always reaped, first by closing
//! their stdin (the graceful path), then by SIGTERM; nothing is timed
//! before the mesh is complete.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_protocol::runtime::{derive_run_config, RunConfig, Send as CoreSend};
use gcs_protocol::wire::{Frame, FrameReader};
use gcs_protocol::{EstimateMode, NodeCore, Params};
use gcs_sim::SimTime;

use crate::host;
use crate::report::{median, quantile, Outcome};
use crate::spans::Tracer;
use crate::RunArgs;

pub const NAME: &str = "daemon-mesh-uds";

/// Daemon processes in the mesh (one connection each from the observer).
const DAEMONS: u64 = 2;
/// Virtual nodes each daemon hosts.
const PER_DAEMON: u64 = 64;
const TINY_PER_DAEMON: u64 = 4;
/// Measured seconds per mesh once it is complete.
const WINDOW_S: f64 = 4.0;
const TINY_WINDOW_S: f64 = 0.5;
/// How long set-up and shutdown may take before the run fails.
const SETUP_LIMIT: Duration = Duration::from_secs(20);
const EXIT_LIMIT: Duration = Duration::from_secs(3);

/// The daemon flags of the workload input, and the values read back.
struct Plan {
    flags: Vec<String>,
    rho: f64,
    mu: f64,
    refresh: f64,
    epsilon: f64,
    tau: f64,
    delay_max: f64,
    time_scale: f64,
    per_daemon: u64,
    window: f64,
}

impl Plan {
    fn load(args: &RunArgs) -> Result<Plan, String> {
        let flags = read_flags(&args.root)?;
        let get = |flag: &str| -> Result<f64, String> {
            let i = flags
                .iter()
                .position(|f| f == flag)
                .ok_or_else(|| format!("{NAME} flags lack {flag}"))?;
            flags
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .filter(|v: &f64| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{NAME} flag {flag} needs a positive number"))
        };
        Ok(Plan {
            rho: get("--rho")?,
            mu: get("--mu")?,
            refresh: get("--refresh")?,
            epsilon: get("--epsilon")?,
            tau: get("--tau")?,
            delay_max: get("--delay-max")?,
            time_scale: get("--time-scale")?,
            per_daemon: if args.tiny {
                TINY_PER_DAEMON
            } else {
                PER_DAEMON
            },
            window: if args.tiny { TINY_WINDOW_S } else { WINDOW_S },
            flags,
        })
    }

    fn hosted(&self) -> u64 {
        DAEMONS * self.per_daemon
    }

    /// Cluster size: the hosted nodes plus the observer.
    fn total(&self) -> u64 {
        self.hosted() + 1
    }

    fn observer(&self) -> u64 {
        self.hosted()
    }

    /// The run constants every member derives (as the daemon does).
    fn config(&self) -> Result<RunConfig, String> {
        let base = Params::builder()
            .rho(self.rho)
            .mu(self.mu)
            .refresh_period(self.refresh)
            .build()
            .map_err(|e| format!("invalid parameters: {e}"))?;
        let edge = EdgeParams::try_new(self.epsilon, self.tau, 0.0, self.delay_max)
            .map_err(|e| format!("invalid edge parameters: {e}"))?;
        let mut universe = Vec::new();
        for a in 0..self.total() {
            for b in (a + 1)..self.total() {
                universe.push(EdgeKey::new(node(a), node(b)));
            }
        }
        Ok(derive_run_config(
            &base,
            EstimateMode::Messages,
            &EdgeParamsMap::uniform(edge),
            &universe,
            self.total() as usize,
        ))
    }
}

fn read_flags(root: &Path) -> Result<Vec<String>, String> {
    let path = root.join("perfbench/inputs").join(format!("{NAME}.flags"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .flat_map(str::split_whitespace)
        .map(str::to_string)
        .collect())
}

/// The daemon `--time-scale` of the workload input, for the host record.
pub fn time_scale(root: &Path) -> Option<String> {
    let flags = read_flags(root).ok()?;
    let i = flags.iter().position(|f| f == "--time-scale")?;
    flags.get(i + 1).cloned()
}

fn node(id: u64) -> NodeId {
    NodeId(u32::try_from(id).expect("cluster IDs fit in u32"))
}

/// One spawned daemon.
struct Daemon {
    child: Child,
    out: PathBuf,
    first: u64,
}

impl Daemon {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn output(&self) -> String {
        std::fs::read_to_string(&self.out).unwrap_or_default()
    }
}

/// What a reader thread hands the observer.
enum Arrival {
    Frame(usize, Instant, Frame),
    Bytes(usize),
    Corrupt(usize, String),
}

/// A running mesh. Dropping it reaps the daemons and removes the
/// directory, whatever state the run left it in.
struct Mesh {
    dir: PathBuf,
    daemons: Vec<Daemon>,
    writers: Vec<UnixStream>,
    readers: Vec<JoinHandle<Tracer>>,
    rx: Option<Receiver<Arrival>>,
    reaped: bool,
}

impl Mesh {
    /// Graceful stop: stdin EOF to every daemon, then SIGTERM, then
    /// SIGKILL for any that outlive their limit. Returns the daemons'
    /// output and whether each exited cleanly by the graceful path.
    fn reap(&mut self) -> Vec<(String, bool)> {
        if self.reaped {
            return Vec::new();
        }
        self.reaped = true;
        for d in &mut self.daemons {
            drop(d.child.stdin.take());
        }
        let mut clean = Vec::new();
        for d in &mut self.daemons {
            let ok = match wait_for(&mut d.child, EXIT_LIMIT) {
                Some(status) => status.success(),
                None => {
                    let _ = Command::new("kill")
                        .args(["-TERM", &d.pid()])
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .status();
                    if wait_for(&mut d.child, EXIT_LIMIT).is_none() {
                        let _ = d.child.kill();
                        let _ = d.child.wait();
                    }
                    false
                }
            };
            clean.push((d.output(), ok));
        }
        for w in &self.writers {
            let _ = w.shutdown(Shutdown::Both);
        }
        self.rx = None;
        clean
    }

    fn join_readers(&mut self) -> Vec<Tracer> {
        self.readers
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect()
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.reap();
        self.join_readers();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn wait_for(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => return None,
        }
    }
}

/// A Unix socket path short enough for `sun_path`: relative to the
/// working directory when the directory lies below it.
fn socket_path(p: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| p.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or_else(|| p.to_path_buf())
}

fn spawn_daemon(args: &RunArgs, plan: &Plan, dir: &Path, k: u64) -> Result<Daemon, String> {
    let out = dir.join(format!("d{k}.out"));
    let stdout = File::create(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let first = k * plan.per_daemon;
    let mut cmd = Command::new(&args.node_bin);
    cmd.current_dir(dir)
        .args(["--uds", &format!("d{k}.sock")])
        .args(["--first", &first.to_string()])
        .args(["--count", &plan.per_daemon.to_string()])
        .args(["--total", &plan.total().to_string()])
        .args(&plan.flags)
        .stdin(Stdio::piped())
        .stdout(stdout)
        .stderr(Stdio::null());
    let peers: Vec<String> = (0..k).map(|p| format!("unix:d{p}.sock")).collect();
    if !peers.is_empty() {
        cmd.arg("--peers").arg(peers.join(","));
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", args.node_bin.display()))?;
    Ok(Daemon { child, out, first })
}

fn wait_listening(d: &mut Daemon, deadline: Instant) -> Result<(), String> {
    loop {
        if d.output().lines().any(|l| l.starts_with("listening ")) {
            return Ok(());
        }
        if let Ok(Some(status)) = d.child.try_wait() {
            return Err(format!(
                "daemon {} exited during start-up: {status}",
                d.first
            ));
        }
        if Instant::now() > deadline {
            return Err(format!("daemon {} never started listening", d.first));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn reader(k: usize, mut stream: UnixStream, tx: Sender<Arrival>, traced: bool) -> Tracer {
    let mut tr = Tracer::new(traced, 0);
    let mut frames = FrameReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return tr,
            Ok(n) => n,
        };
        let at = Instant::now();
        let _ = tx.send(Arrival::Bytes(n));
        frames.extend(&buf[..n]);
        loop {
            match tr.span("decode", "protocol", || frames.next_frame()) {
                Ok(Some(f)) => {
                    if tx.send(Arrival::Frame(k, at, f)).is_err() {
                        return tr;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = tx.send(Arrival::Corrupt(k, e.to_string()));
                    return tr;
                }
            }
        }
    }
}

/// Everything the observer saw while the window was open.
#[derive(Default)]
struct Seen {
    /// `(daemon, arrival − sent_at/time_scale)` per flood, seconds.
    offsets: Vec<(usize, f64)>,
    /// Send instants (run clock) per source node.
    sent: BTreeMap<u64, Vec<f64>>,
    frames: u64,
    bytes: u64,
    corrupt: u64,
    merges: u64,
    m_moves: u64,
    floods: u64,
    mode_switches: u64,
    /// Wall seconds the observer's own floods ran late.
    gen_lag: Vec<f64>,
}

/// The observer member: its core, its connections, what it heard.
struct Observer {
    core: NodeCore,
    id: u64,
    epoch: Instant,
    time_scale: f64,
    /// Everyone heard since the mesh started, window or not.
    heard: BTreeSet<u64>,
    /// Hosted ID range per daemon connection.
    ranges: Vec<(u64, u64)>,
    sends: Vec<CoreSend>,
    wire: Vec<u8>,
    problems: Vec<String>,
}

impl Observer {
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.epoch.elapsed().as_secs_f64() * self.time_scale)
    }

    fn wall_of(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_secs_f64(t.as_secs() / self.time_scale)
    }

    /// Handles arrivals and floods on schedule until `until`.
    fn pump(
        &mut self,
        mesh: &mut Mesh,
        until: Instant,
        mut seen: Option<&mut Seen>,
        tr: &mut Tracer,
        stop: &mut dyn FnMut(&Observer) -> bool,
    ) -> Result<(), String> {
        let rx = mesh
            .rx
            .take()
            .ok_or("the observer lost its receive channel")?;
        let result = loop {
            if Instant::now() >= until || stop(self) {
                break Ok(());
            }
            let due = self.wall_of(self.core.next_flood_at()).min(until);
            let wait = due.saturating_duration_since(Instant::now());
            let first = match rx.recv_timeout(wait) {
                Ok(a) => Some(a),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    break Err("every daemon connection closed".to_string())
                }
            };
            for a in first.into_iter().chain(rx.try_iter()) {
                self.arrive(a, seen.as_deref_mut(), tr);
            }
            let t = self.now();
            let due_at = self.core.next_flood_at();
            self.sends.clear();
            tr.span("poll_sends", "protocol", || {
                self.core.poll_sends(t, &mut self.sends)
            });
            if !self.sends.is_empty() {
                if let Some(s) = seen.as_deref_mut() {
                    s.floods += 1;
                    s.gen_lag
                        .push((t.as_secs() - due_at.as_secs()) / self.time_scale);
                }
                self.route(mesh, tr)?;
            }
            let before = self.core.state().mode();
            let mode = tr.span("evaluate", "protocol", || self.core.evaluate(t));
            if let Some(s) = seen.as_deref_mut() {
                s.mode_switches += u64::from(mode != before);
            }
        };
        mesh.rx = Some(rx);
        result
    }

    fn route(&mut self, mesh: &mut Mesh, tr: &mut Tracer) -> Result<(), String> {
        for (k, &(first, count)) in self.ranges.iter().enumerate() {
            self.wire.clear();
            tr.span("encode", "protocol", || {
                for s in self
                    .sends
                    .iter()
                    .filter(|s| (first..first + count).contains(&u64::from(s.dst.0)))
                {
                    Frame::Flood {
                        src: s.src,
                        dst: s.dst,
                        sent_at: s.sent_at,
                        msg: s.msg,
                    }
                    .encode(&mut self.wire);
                }
            });
            tr.span("write", "node", || mesh.writers[k].write_all(&self.wire))
                .map_err(|e| format!("cannot write to daemon {k}: {e}"))?;
        }
        Ok(())
    }

    fn arrive(&mut self, a: Arrival, seen: Option<&mut Seen>, tr: &mut Tracer) {
        match a {
            Arrival::Bytes(n) => {
                if let Some(s) = seen {
                    s.bytes += n as u64;
                }
            }
            Arrival::Corrupt(k, e) => {
                self.problems
                    .push(format!("daemon {k} sent a corrupt stream: {e}"));
                if let Some(s) = seen {
                    s.corrupt += 1;
                }
            }
            Arrival::Frame(k, at, frame) => match frame {
                Frame::Hello { .. } => {}
                Frame::Shutdown => self
                    .problems
                    .push(format!("daemon {k} left during the run")),
                Frame::Flood {
                    src,
                    dst,
                    sent_at,
                    msg,
                } => {
                    let src_id = u64::from(src.0);
                    let (first, count) = self.ranges[k];
                    let valid = u64::from(dst.0) == self.id
                        && (first..first + count).contains(&src_id)
                        && sent_at.as_secs().is_finite()
                        && [msg.logical, msg.max_est, msg.min_lb, msg.max_ub]
                            .iter()
                            .all(|v| v.is_finite());
                    let mut seen = seen;
                    if let Some(s) = seen.as_deref_mut() {
                        s.frames += 1;
                    }
                    if !valid {
                        self.problems.push(format!(
                            "daemon {k} sent a malformed flood {src_id}->{}",
                            dst.0
                        ));
                        if let Some(s) = seen {
                            s.corrupt += 1;
                        }
                        return;
                    }
                    self.heard.insert(src_id);
                    let t = self.now();
                    let merged = tr.span("on_message", "protocol", || {
                        self.core.on_message(t, src, sent_at, msg)
                    });
                    if let Some(s) = seen {
                        let arrival = at.saturating_duration_since(self.epoch).as_secs_f64();
                        s.offsets
                            .push((k, arrival - sent_at.as_secs() / self.time_scale));
                        s.sent.entry(src_id).or_default().push(sent_at.as_secs());
                        if let Some(m) = merged {
                            s.merges += 1;
                            s.m_moves += u64::from(m.m_moved);
                        }
                    }
                }
            },
        }
    }
}

/// The newest `peers_heard` per hosted node in a daemon's output.
fn peers_heard(output: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for line in output.lines() {
        if let Some(st) = Status::parse(line) {
            out.insert(st.id, st.peers_heard);
        }
    }
    out
}

/// One parsed daemon `status` line.
struct Status {
    id: u64,
    t: f64,
    logical: f64,
    peers_heard: u64,
}

impl Status {
    fn parse(line: &str) -> Option<Status> {
        let (mut id, mut t, mut logical, mut peers) = (None, None, None, None);
        for field in line.strip_prefix("status ")?.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "id" => id = value.parse().ok(),
                "t" => t = value.parse().ok(),
                "logical" => logical = value.parse().ok(),
                "peers_heard" => peers = value.parse().ok(),
                _ => {}
            }
        }
        Some(Status {
            id: id?,
            t: t?,
            logical: logical?,
            peers_heard: peers?,
        })
    }
}

/// One mesh's measurements.
struct MeshRun {
    setup_s: f64,
    window_s: f64,
    cpu_s: Vec<f64>,
    rss_mb: Vec<f64>,
    seen: Seen,
    outputs: Vec<(String, bool)>,
    /// Per daemon, the minimum `arrival − sent_at/time_scale` (seconds):
    /// the wall offset that aligns its run clock with the observer's.
    align: Vec<f64>,
    window_run: (f64, f64),
    tracer: Tracer,
    /// What the observer found wrong in the daemons' traffic.
    problems: Vec<String>,
}

fn run_mesh(
    args: &RunArgs,
    plan: &Plan,
    cfg: &RunConfig,
    n: usize,
    traced: bool,
) -> Result<MeshRun, String> {
    let dir = args
        .work_dir
        .join(format!("mesh-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (tx, rx) = mpsc::channel();
    let mut mesh = Mesh {
        dir: dir.clone(),
        daemons: Vec::new(),
        writers: Vec::new(),
        readers: Vec::new(),
        rx: Some(rx),
        reaped: false,
    };
    let mut tr = Tracer::new(traced, args.seed);
    let root = tr.open("mesh", "bench");

    // Set-up: spawn, connect, and wait until everyone heard everyone.
    let started = Instant::now();
    let deadline = started + SETUP_LIMIT;
    let id = plan.observer();
    // The seed staggers the observer's first flood within one period.
    let stagger = plan.refresh * ((args.seed % 97) + 1) as f64 / 98.0;
    let mut core = NodeCore::new(
        node(id),
        cfg.params.clone(),
        cfg.refresh,
        1.0,
        SimTime::from_secs(stagger),
    );
    for peer in 0..id {
        core.add_neighbor(
            node(peer),
            cfg.edge_info[&EdgeKey::new(node(id), node(peer))],
        );
    }
    let mut obs = Observer {
        core,
        id,
        epoch: started,
        time_scale: plan.time_scale,
        heard: BTreeSet::new(),
        ranges: Vec::new(),
        sends: Vec::new(),
        wire: Vec::new(),
        problems: Vec::new(),
    };
    let hello = Frame::Hello {
        first: id,
        count: 1,
    }
    .to_bytes();
    for k in 0..DAEMONS {
        let mut d = spawn_daemon(args, plan, &dir, k)?;
        let listening = wait_listening(&mut d, deadline);
        mesh.daemons.push(d);
        listening?;
        let path = socket_path(&dir.join(format!("d{k}.sock")));
        let mut s = UnixStream::connect(&path)
            .map_err(|e| format!("cannot connect to {}: {e}", path.display()))?;
        s.write_all(&hello)
            .map_err(|e| format!("cannot greet daemon {k}: {e}"))?;
        let rs = s
            .try_clone()
            .map_err(|e| format!("cannot clone a socket: {e}"))?;
        let txk = tx.clone();
        let idx = mesh.writers.len();
        mesh.readers
            .push(std::thread::spawn(move || reader(idx, rs, txk, traced)));
        mesh.writers.push(s);
        obs.ranges.push((k * plan.per_daemon, plan.per_daemon));
    }
    drop(tx);
    let want = plan.total() - 1;
    let mut last_poll = Instant::now();
    let mut complete = |o: &Observer| {
        if o.heard.len() as u64 != plan.hosted() || last_poll.elapsed() < Duration::from_millis(5) {
            return false;
        }
        last_poll = Instant::now();
        mesh_complete(&daemon_outputs(&dir), plan, want)
    };
    let setup_id = tr.open("setup", "bench");
    obs.pump(&mut mesh, deadline, None, &mut tr, &mut complete)?;
    tr.close(setup_id);
    if !mesh_complete(&daemon_outputs(&dir), plan, want) || obs.heard.len() as u64 != plan.hosted()
    {
        return Err(format!(
            "the mesh did not complete within {}s (observer heard {} of {})",
            SETUP_LIMIT.as_secs(),
            obs.heard.len(),
            plan.hosted()
        ));
    }
    let setup_s = started.elapsed().as_secs_f64();

    // The measured window.
    let pids: Vec<String> = mesh.daemons.iter().map(Daemon::pid).collect();
    let cpu0: Vec<f64> = pids
        .iter()
        .map(|p| host::threads_cpu_secs(p).unwrap_or(0.0))
        .collect();
    let mut seen = Seen::default();
    let w0 = Instant::now();
    let run0 = obs.now().as_secs();
    let window_id = tr.open("window", "bench");
    obs.pump(
        &mut mesh,
        w0 + Duration::from_secs_f64(plan.window),
        Some(&mut seen),
        &mut tr,
        &mut |_| false,
    )?;
    tr.close(window_id);
    let window_s = w0.elapsed().as_secs_f64();
    let run1 = obs.now().as_secs();
    let cpu_s: Vec<f64> = pids
        .iter()
        .zip(&cpu0)
        .map(|(p, c0)| host::threads_cpu_secs(p).unwrap_or(0.0) - c0)
        .collect();
    let rss_mb: Vec<f64> = pids
        .iter()
        .map(|p| host::peak_rss_mb(p).unwrap_or(0.0))
        .collect();

    let outputs = mesh.reap();
    let readers = mesh.join_readers();
    for r in readers {
        tr.adopt(r);
    }
    tr.close(root);
    let align: Vec<f64> = (0..DAEMONS as usize)
        .map(|k| {
            seen.offsets
                .iter()
                .filter(|(d, _)| *d == k)
                .map(|&(_, o)| o)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    Ok(MeshRun {
        problems: std::mem::take(&mut obs.problems),
        setup_s,
        window_s,
        cpu_s,
        rss_mb,
        seen,
        outputs,
        align,
        window_run: (run0, run1),
        tracer: tr,
    })
}

fn daemon_outputs(dir: &Path) -> Vec<String> {
    (0..DAEMONS)
        .map(|k| std::fs::read_to_string(dir.join(format!("d{k}.out"))).unwrap_or_default())
        .collect()
}

/// Every hosted node reports having heard `want` peers.
fn mesh_complete(outputs: &[String], plan: &Plan, want: u64) -> bool {
    outputs.iter().enumerate().all(|(k, out)| {
        let heard = peers_heard(out);
        let first = k as u64 * plan.per_daemon;
        (first..first + plan.per_daemon).all(|id| heard.get(&id) == Some(&want))
    })
}

/// Per-mesh analysis of what the observer saw.
struct Analysis {
    transit_ms: Vec<f64>,
    received: u64,
    missing: u64,
    late: u64,
    slip_ms: Vec<f64>,
    skew_util_pct: f64,
}

fn analyse(plan: &Plan, cfg: &RunConfig, m: &MeshRun) -> Analysis {
    let x = plan.time_scale;
    let transit_ms: Vec<f64> = m
        .seen
        .offsets
        .iter()
        .map(|&(k, o)| 1e3 * (o - m.align[k]))
        .collect();
    let late_limit_ms = 1e3 * plan.delay_max / x;
    let late = transit_ms.iter().filter(|&&t| t > late_limit_ms).count() as u64;

    // Missing floods: gaps in each source's send sequence, plus a silent
    // tail, against the nominal refresh period on its run clock.
    let mut missing = 0u64;
    let mut slip_ms = Vec::new();
    let mut received = 0u64;
    let (_, run_end) = m.window_run;
    for src in 0..plan.hosted() {
        let sent = m.seen.sent.get(&src).map_or(&[][..], Vec::as_slice);
        received += sent.len() as u64;
        if sent.is_empty() {
            missing += (plan.window * x / plan.refresh).floor() as u64;
            continue;
        }
        for pair in sent.windows(2) {
            let gap = pair[1] - pair[0];
            missing += ((gap / plan.refresh).round() as u64).saturating_sub(1);
            slip_ms.push(1e3 * (gap - plan.refresh) / x);
        }
        // The daemon's clock runs behind the observer's by its alignment.
        let k = (src / plan.per_daemon) as usize;
        let tail = run_end - (m.align[k] * x) - sent[sent.len() - 1];
        missing += ((tail / plan.refresh).floor() as u64).saturating_sub(1);
    }

    // Skew from the status lines: align each daemon's rounds on the
    // observer's wall clock, pair the rounds, extrapolate, compare
    // against the Theorem 5.22 pairwise bound of the complete graph.
    let rounds: Vec<BTreeMap<u64, Vec<(u64, f64)>>> = m
        .outputs
        .iter()
        .map(|(out, _)| {
            let mut r: BTreeMap<u64, Vec<(u64, f64)>> = BTreeMap::new();
            for st in out.lines().filter_map(Status::parse) {
                r.entry(st.t.to_bits())
                    .or_default()
                    .push((st.id, st.logical));
            }
            r
        })
        .collect();
    let wall = |k: usize, t: f64| t / x + m.align[k];
    let (w_lo, w_hi) = (m.window_run.0 / x, m.window_run.1 / x);
    let mut skew = 0.0f64;
    for (&t0, nodes0) in &rounds[0] {
        let w0 = wall(0, f64::from_bits(t0));
        if !(w_lo..=w_hi).contains(&w0) || nodes0.len() as u64 != plan.per_daemon {
            continue;
        }
        let mut logicals: Vec<f64> = nodes0.iter().map(|&(_, l)| l).collect();
        for (k, r) in rounds.iter().enumerate().skip(1) {
            let nearest = r
                .iter()
                .filter(|(_, v)| v.len() as u64 == plan.per_daemon)
                .min_by(|a, b| {
                    let da = (wall(k, f64::from_bits(*a.0)) - w0).abs();
                    let db = (wall(k, f64::from_bits(*b.0)) - w0).abs();
                    da.total_cmp(&db)
                });
            if let Some((&tk, nodes)) = nearest {
                let shift = (w0 - wall(k, f64::from_bits(tk))) * x;
                logicals.extend(nodes.iter().map(|&(_, l)| l + shift));
            }
        }
        let hi = logicals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lo = logicals.iter().copied().fold(f64::INFINITY, f64::min);
        skew = skew.max(hi - lo);
    }
    let g_hat = cfg.params.g_tilde().unwrap_or(f64::INFINITY);
    let kappa = cfg
        .edge_info
        .values()
        .map(|e| e.kappa)
        .fold(0.0f64, f64::max);
    let envelope = gcs_analysis::gradient_bound(&cfg.params, g_hat, kappa);
    Analysis {
        transit_ms,
        received,
        missing,
        late,
        slip_ms,
        skew_util_pct: 100.0 * skew / envelope,
    }
}

/// Runs the workload: complete meshes measured for `args.seconds` in
/// all, then one traced mesh.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let plan = Plan::load(args)?;
    let cfg = plan.config()?;
    println!(
        "transport unix-socket loopback on one host (not a network link); {} daemons x {} nodes + 1 observer, time-scale {}",
        DAEMONS, plan.per_daemon, plan.time_scale
    );
    if !args.node_bin.exists() {
        return Err(format!("gcs-node not found at {}", args.node_bin.display()));
    }
    let mut out = Outcome::default();
    let mut meshes = Vec::new();
    let phase = Instant::now();
    loop {
        let t = Instant::now();
        meshes.push(run_mesh(args, &plan, &cfg, meshes.len(), false)?);
        let last = t.elapsed().as_secs_f64();
        if phase.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let traced = run_mesh(args, &plan, &cfg, meshes.len(), true)?;
    args.write_spans(&traced.tracer)?;

    let hosted = plan.hosted() as f64;
    let x = plan.time_scale;
    // Per mesh: floods the daemons processed and protocol seconds the
    // cluster delivered (time-scale x window x the share of the nominal
    // flood schedule that arrived), per daemon CPU second, then per wall
    // second.
    let rates = |m: &MeshRun, a: &Analysis| {
        let processed = hosted * a.received as f64;
        let delivered = a.received as f64 / (plan.hosted() as f64 * m.window_s * x / plan.refresh);
        let protocol_s = x * m.window_s * delivered;
        let cpu_s = m.cpu_s.iter().sum::<f64>().max(1e-9);
        [
            protocol_s / cpu_s,
            processed / cpu_s,
            processed / cpu_s,
            protocol_s / m.window_s,
            processed / m.window_s,
        ]
    };
    let names = [
        "sim_s_per_cpu_s",
        "events_per_cpu_s",
        "msgs_per_cpu_s",
        "wall.sim_s_per_s",
        "wall.events_per_s",
    ];
    let analyses: Vec<Analysis> = meshes.iter().map(|m| analyse(&plan, &cfg, m)).collect();
    let traced_a = analyse(&plan, &cfg, &traced);
    let per: Vec<[f64; 5]> = meshes
        .iter()
        .zip(&analyses)
        .map(|(m, a)| rates(m, a))
        .collect();
    let med = |i: usize| median(&per.iter().map(|r| r[i]).collect::<Vec<_>>());
    let setups: Vec<f64> = meshes.iter().map(|m| m.setup_s).collect();
    let rss: Vec<f64> = meshes.iter().map(|m| m.rss_mb.iter().sum()).collect();
    let transit: Vec<f64> = analyses
        .iter()
        .flat_map(|a| a.transit_ms.iter().copied())
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", median(&rss));
    for (i, name) in names.into_iter().enumerate() {
        m.set(name, med(i));
    }
    let t = rates(&traced, &traced_a);
    m.set("traced.setup_s", traced.setup_s);
    m.set("traced.sim_s_per_cpu_s", t[0]);
    m.set("traced.events_per_cpu_s", t[1]);
    m.set("traced.msgs_per_cpu_s", t[2]);
    m.set("trace_overhead_pct", 100.0 * (med(2) - t[2]) / med(2));

    // Per-layer, from the traced mesh.
    let tm = &traced;
    let ta = &traced_a;
    m.set("node.d0.cpu_s", tm.cpu_s[0]);
    m.set("node.d1.cpu_s", tm.cpu_s[1]);
    m.set("node.d0.cpu_share", tm.cpu_s[0] / tm.window_s);
    m.set("node.d1.cpu_share", tm.cpu_s[1] / tm.window_s);
    m.set("node.rss_mb", tm.rss_mb.iter().sum());
    m.set("node.frames_rx", tm.seen.frames as f64);
    m.set("node.bytes_rx", tm.seen.bytes as f64);
    let expected = (ta.received + ta.missing) as f64;
    m.set("node.loss_ratio", ta.missing as f64 / expected.max(1.0));
    m.set("node.corrupt_frames", tm.seen.corrupt as f64);
    m.set(
        "node.late_ratio",
        ta.late as f64 / ta.received.max(1) as f64,
    );
    m.set("node.period_slip_ms", median(&ta.slip_ms));
    m.set("node.skew_util_pct", ta.skew_util_pct);
    m.set("node.gen_lag_ms", 1e3 * quantile(&tm.seen.gen_lag, 1.0));
    m.set("node.transit_p50_ms", quantile(&ta.transit_ms, 0.5));
    m.set("node.transit_p99_ms", quantile(&ta.transit_ms, 0.99));
    m.set("node.transit_samples", ta.transit_ms.len() as f64);
    m.set("protocol.floods", tm.seen.floods as f64);
    m.set("protocol.flood_merges", tm.seen.merges as f64);
    m.set(
        "protocol.m_jump_ratio",
        tm.seen.m_moves as f64 / tm.seen.merges.max(1) as f64,
    );
    m.set("protocol.mode_switches", tm.seen.mode_switches as f64);
    let own = tm.tracer.self_time();
    m.set(
        "bench.harness_s",
        ["mesh", "setup", "window"]
            .iter()
            .map(|n| own.get(n).copied().unwrap_or(0.0))
            .sum(),
    );
    println!(
        "untraced transit_p50_ms {} transit_p99_ms {} over {} floods",
        quantile(&transit, 0.5),
        quantile(&transit, 0.99),
        transit.len()
    );

    // Checks: every node heard every other node, no corrupt frame, the
    // skew inside the envelope, a clean graceful shutdown; each expected
    // flood is one operation, failed if missing, corrupt or late.
    let want = plan.total() - 1 + u64::from(args.forge);
    for (i, (run, a)) in meshes
        .iter()
        .zip(&analyses)
        .chain(std::iter::once((tm, ta)))
        .enumerate()
    {
        let outputs: Vec<String> = run.outputs.iter().map(|(o, _)| o.clone()).collect();
        out.check(mesh_complete(&outputs, &plan, want), || {
            format!("mesh {i}: not every node heard all {want} others")
        });
        out.check(run.seen.sent.len() as u64 == plan.hosted(), || {
            format!(
                "mesh {i}: the observer heard {} of {} daemon nodes",
                run.seen.sent.len(),
                plan.hosted()
            )
        });
        for p in &run.problems {
            out.check(false, || format!("mesh {i}: {p}"));
        }
        out.check(run.seen.corrupt == 0, || {
            format!("mesh {i}: {} corrupt frames", run.seen.corrupt)
        });
        out.check(a.skew_util_pct <= 100.0, || {
            format!(
                "mesh {i}: skew at {:.1}% of the Thm 5.22 envelope",
                a.skew_util_pct
            )
        });
        for (k, (text, clean)) in run.outputs.iter().enumerate() {
            out.check(
                *clean && text.lines().any(|l| l == "shutdown clean"),
                || format!("mesh {i}: daemon {k} did not shut down cleanly"),
            );
        }
        out.attempted += a.received + a.missing;
        out.failed += a.missing + a.late;
    }
    Ok(out)
}
