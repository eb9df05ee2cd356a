//! `gcs-node` — the sans-IO protocol core behind a real transport.
//!
//! One OS process hosts a contiguous block of virtual nodes
//! ([`gcs_protocol::NodeCore`]) and exchanges length-prefixed
//! [`gcs_protocol::wire`] frames with peer processes over TCP or Unix
//! domain sockets. The daemon owns exactly what the sans-IO core
//! abstracts away — a wall clock and sockets — and nothing else: every
//! protocol decision (flood scheduling, §3.1 delivery, bound merges,
//! mode triggers) happens inside `NodeCore`, in the same code the
//! deterministic simulation engines execute.
//!
//! The loop wakes every ~2 ms to read sockets and send due floods, but
//! modes are evaluated on the derived tick `κ_min/(8β)` — the same grid
//! the engines sweep and the oracle's discretization slack is sized for
//! ([`NodeCore::poll_tick`](gcs_protocol::NodeCore::poll_tick)), not on
//! every loop spin.
//!
//! ```sh
//! gcs-node --listen 127.0.0.1:0 --first 0 --count 2 --total 6
//! gcs-node --uds /tmp/gcs-b.sock --first 2 --count 2 --total 6 \
//!          --peers 127.0.0.1:47001
//! ```
//!
//! Protocol on stdout (one line each, parseable by the loopback harness):
//!
//! * `listening <addr>` — printed once the socket is bound.
//! * `status id=<id> t=<secs> logical=<L> max_est=<M> mode=<fast|slow>
//!   peers_heard=<n>` — per hosted node, every `--status-every` seconds
//!   and once more the moment every hosted node has heard every peer,
//!   written as one block; the clock values are those at `t`.
//! * `shutdown clean` — printed on the graceful exit path.
//!
//! Shutdown: the daemon exits cleanly (code 0) when its stdin reaches
//! EOF or when any peer sends a SHUTDOWN frame; it broadcasts SHUTDOWN
//! to its peers on the way out. SIGTERM terminates it immediately via
//! the default disposition (the harness treats that as the hard-stop
//! path and asserts promptness, not gracefulness).
//!
//! Exit codes: 0 = clean shutdown, 1 = configuration or socket error
//! (including an ID range that does not fit below `u32::MAX`).

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_protocol::runtime::{derive_run_config, Send as CoreSend};
use gcs_protocol::wire::{Frame, FrameReader};
use gcs_protocol::{EstimateMode, FloodMsg, Mode, NodeCore, Params};
use gcs_sim::SimTime;

const USAGE: &str = "\
gcs-node — socket daemon hosting virtual gradient-clock-sync nodes

USAGE:
    gcs-node (--listen ADDR | --uds PATH) --first N --count K --total M
             [--peers ADDR[,ADDR...]] [--rho R] [--mu U] [--refresh S]
             [--epsilon E] [--tau S] [--delay-max S]
             [--status-every S] [--time-scale X] [--no-drift]

    --listen ADDR     bind a TCP listener (port 0 picks a free port)
    --uds PATH        bind a Unix domain socket listener instead
    --first N         first hosted virtual node ID        (default 0)
    --count K         number of hosted virtual nodes      (default 1)
    --total M         cluster-wide node count             (default first+count)
    --peers LIST      comma list of peer daemons to dial; TCP addresses,
                      or unix:PATH for Unix domain sockets
    --rho R           hardware drift bound                (default 1e-3)
    --mu U            fast-mode rate boost                (default 0.1)
    --refresh S       flood refresh period, seconds       (default 0.2)
    --epsilon E       estimate uncertainty                (default 1e-3)
    --tau S           edge detection delay                (default 0.05)
    --delay-max S     message delay upper bound           (default 0.05)
    --status-every S  status print period, seconds        (default 0.25)
    --time-scale X    run-clock seconds per wall second   (default 1)
    --no-drift        host every node at hardware rate 1.0 instead of
                      deterministically spread over [1-rho, 1+rho]

The cluster topology is the complete graph over IDs 0..M: every hosted
node treats every other ID as a fully inserted neighbour. Node IDs must
lie below 4294967295 (u32::MAX is reserved). Sockets are polled every
~2 ms; modes are evaluated on the derived tick kappa_min/(8 beta), not
on every poll.
";

struct Options {
    listen: Option<String>,
    uds: Option<String>,
    first: u32,
    count: u32,
    total: u32,
    peers: Vec<String>,
    rho: f64,
    mu: f64,
    refresh: f64,
    epsilon: f64,
    tau: f64,
    delay_max: f64,
    status_every: f64,
    time_scale: f64,
    drift: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        listen: None,
        uds: None,
        first: 0,
        count: 1,
        total: 0,
        peers: Vec::new(),
        rho: 1e-3,
        mu: 0.1,
        refresh: 0.2,
        epsilon: 1e-3,
        tau: 0.05,
        delay_max: 0.05,
        status_every: 0.25,
        time_scale: 1.0,
        drift: true,
    };
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |args: &[String], i: usize, flag: &str| -> Result<f64, String> {
        let v: f64 = value(args, i, flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{flag} must be a positive finite number"))
        }
    };
    let int = |args: &[String], i: usize, flag: &str| -> Result<u32, String> {
        value(args, i, flag)?
            .parse()
            .map_err(|_| format!("{flag} needs an integer from 0 to {}", u32::MAX))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => o.listen = Some(value(args, i, "--listen")?),
            "--uds" => o.uds = Some(value(args, i, "--uds")?),
            "--first" => o.first = int(args, i, "--first")?,
            "--count" => o.count = int(args, i, "--count")?,
            "--total" => o.total = int(args, i, "--total")?,
            "--peers" => o
                .peers
                .extend(value(args, i, "--peers")?.split(',').map(str::to_string)),
            "--rho" => o.rho = num(args, i, "--rho")?,
            "--mu" => o.mu = num(args, i, "--mu")?,
            "--refresh" => o.refresh = num(args, i, "--refresh")?,
            "--epsilon" => o.epsilon = num(args, i, "--epsilon")?,
            "--tau" => o.tau = num(args, i, "--tau")?,
            "--delay-max" => o.delay_max = num(args, i, "--delay-max")?,
            "--status-every" => o.status_every = num(args, i, "--status-every")?,
            "--time-scale" => o.time_scale = num(args, i, "--time-scale")?,
            "--no-drift" => {
                o.drift = false;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
        i += 2;
    }
    if o.count == 0 {
        return Err("--count must be at least 1".to_string());
    }
    // Node IDs are `u32` (the wire decoder rejects a flood naming a wider
    // ID as corrupt), and every hosted ID lies below `u32::MAX`, which is
    // exactly when `first + count` fits a `u32`.
    let end = o.first.checked_add(o.count).ok_or_else(|| {
        format!(
            "hosted IDs [{}, {}) do not fit the node ID space [0, {})",
            o.first,
            u64::from(o.first) + u64::from(o.count),
            u32::MAX
        )
    })?;
    if o.total == 0 {
        o.total = end;
    }
    if end > o.total {
        return Err(format!(
            "hosted IDs [{}, {end}) exceed --total {}",
            o.first, o.total
        ));
    }
    if o.listen.is_some() == o.uds.is_some() {
        return Err("exactly one of --listen or --uds is required".to_string());
    }
    Ok(o)
}

/// A TCP or Unix-domain byte stream, non-blocking.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

/// The daemon's listening socket.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl Listener {
    fn accept(&self) -> Option<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().ok().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().ok().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// One peer connection: stream, frame reassembly, pending output, and
/// the node-ID range its HELLO announced (for routing).
struct Conn {
    stream: Stream,
    reader: FrameReader,
    outbuf: Vec<u8>,
    range: Option<(u64, u64)>,
    dead: bool,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            outbuf: Vec::new(),
            range: None,
            dead: false,
        }
    }

    fn owns(&self, id: u64) -> bool {
        // Overflow-free `first <= id < first + count`: the range is peer
        // input.
        matches!(self.range, Some((first, count)) if id >= first && id - first < count)
    }

    fn queue(&mut self, frame: &Frame) {
        frame.encode(&mut self.outbuf);
    }

    /// Writes as much pending output as the socket accepts.
    fn flush(&mut self) {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads whatever the socket has and returns the decoded frames.
    /// Marks the connection dead on EOF or a corrupt stream.
    fn pump(&mut self, scratch: &mut [u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.reader.extend(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        loop {
            match self.reader.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => {
                    eprintln!("gcs-node: dropping corrupt peer stream: {e}");
                    self.dead = true;
                    break;
                }
            }
        }
        frames
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;

    // Shared run constants: the exact derivation the simulation builder
    // uses, over the complete-graph edge universe. `delay_min` is zero —
    // loopback transit can be arbitrarily fast, so the cores take no
    // min-transit credit.
    let base = Params::builder()
        .rho(o.rho)
        .mu(o.mu)
        .refresh_period(o.refresh)
        .build()
        .map_err(|e| format!("invalid parameters: {e}"))?;
    let edge = EdgeParams::try_new(o.epsilon, o.tau, 0.0, o.delay_max)
        .map_err(|e| format!("invalid edge parameters: {e}"))?;
    let edge_params = EdgeParamsMap::uniform(edge);
    let mut universe = Vec::new();
    for a in 0..o.total {
        for b in (a + 1)..o.total {
            universe.push(EdgeKey::new(NodeId(a), NodeId(b)));
        }
    }
    let cfg = derive_run_config(
        &base,
        EstimateMode::Messages,
        &edge_params,
        &universe,
        usize::try_from(o.total).map_err(|_| "--total is out of range".to_string())?,
    );

    // Hosted cores: hardware rates deterministically spread over
    // [1-rho, 1+rho] by ID (the drift adversary of the model, realized),
    // flood schedules staggered so the cluster does not send in lockstep,
    // mode decisions on the derived tick grid. (`parse_options` checked
    // that `first + count` fits.)
    let mut cores: Vec<NodeCore> = (o.first..o.first + o.count)
        .map(|id| {
            let rate = if o.drift && o.total > 1 {
                let spread = (f64::from(id) / f64::from(o.total - 1)) * 2.0 - 1.0;
                1.0 + o.rho * spread
            } else {
                1.0
            };
            let stagger = cfg.refresh * (f64::from(id) + 1.0) / (f64::from(o.total) + 1.0);
            let mut core = NodeCore::new(
                NodeId(id),
                cfg.params.clone(),
                cfg.refresh,
                rate,
                SimTime::from_secs(stagger),
            )
            .with_tick(cfg.tick);
            for peer in 0..o.total {
                if peer != id {
                    let key = EdgeKey::new(NodeId(id), NodeId(peer));
                    core.add_neighbor(NodeId(peer), cfg.edge_info[&key]);
                }
            }
            core
        })
        .collect();

    // Transport: bind, announce, dial.
    let listener = match (&o.listen, &o.uds) {
        (Some(addr), None) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("cannot configure {addr}: {e}"))?;
            let bound = l
                .local_addr()
                .map_err(|e| format!("cannot read bound address: {e}"))?;
            println!("listening {bound}");
            Listener::Tcp(l)
        }
        #[cfg(unix)]
        (None, Some(path)) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("cannot configure {path}: {e}"))?;
            println!("listening unix:{path}");
            Listener::Unix(l, path.clone())
        }
        _ => return Err("exactly one of --listen or --uds is required".to_string()),
    };
    let hello = Frame::Hello {
        first: u64::from(o.first),
        count: u64::from(o.count),
    };
    let mut conns: Vec<Conn> = Vec::new();
    for peer in &o.peers {
        let stream = dial(peer)?;
        let mut conn = Conn::new(stream);
        conn.queue(&hello);
        conn.flush();
        conns.push(conn);
    }

    // Stdin watcher: EOF is the graceful-shutdown request (the harness
    // closes our stdin; no signal handler needed).
    let stdin_closed = Arc::new(AtomicBool::new(false));
    {
        let flag = Arc::clone(&stdin_closed);
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            flag.store(true, Ordering::Release);
        });
    }

    // The event loop: real time in, frames out.
    let start = Instant::now();
    let now = |start: &Instant| SimTime::from_secs(start.elapsed().as_secs_f64() * o.time_scale);
    let mut scratch = vec![0u8; 4096];
    let mut sends: Vec<CoreSend> = Vec::new();
    let mut next_status = 0.0f64;
    let mut status = String::new();
    // Hosted (node, peer) pairs with no flood heard yet. A status block
    // also goes out the moment the last one is heard, so whoever waits
    // for the complete mesh sees it then, not whenever the status period
    // next comes round.
    let mut unheard = cores.len() * (o.total as usize - 1);
    let mut mesh_reported = false;
    let mut shutdown_seen = false;
    while !(stdin_closed.load(Ordering::Acquire) || shutdown_seen) {
        while let Some(stream) = listener.accept() {
            if let Err(e) = stream.set_nonblocking() {
                eprintln!("gcs-node: dropping inbound connection: {e}");
                continue;
            }
            let mut conn = Conn::new(stream);
            conn.queue(&hello);
            conn.flush();
            conns.push(conn);
        }

        let t = now(&start);
        for conn in &mut conns {
            for frame in conn.pump(&mut scratch) {
                match frame {
                    Frame::Hello { first, count } => conn.range = Some((first, count)),
                    Frame::Flood {
                        src,
                        dst,
                        sent_at,
                        msg,
                    } => {
                        if let Some(core) = core_for(&mut cores, o.first, dst) {
                            deliver(core, &mut unheard, t, src, sent_at, msg);
                        }
                    }
                    Frame::Shutdown => shutdown_seen = true,
                }
            }
        }

        // Drive the cores: floods due now, then the mode decisions due on
        // the tick grid.
        let t = now(&start);
        sends.clear();
        for core in &mut cores {
            core.poll_sends(t, &mut sends);
        }
        for &s in sends.iter() {
            if let Some(core) = core_for(&mut cores, o.first, s.dst) {
                // Local neighbour: loopback delivery, no wire.
                deliver(core, &mut unheard, t, s.src, s.sent_at, s.msg);
            } else if let Some(conn) = conns
                .iter_mut()
                .find(|c| !c.dead && c.owns(u64::from(s.dst.0)))
            {
                conn.queue(&Frame::Flood {
                    src: s.src,
                    dst: s.dst,
                    sent_at: s.sent_at,
                    msg: s.msg,
                });
            }
        }
        for core in &mut cores {
            let _ = core.poll_tick(t);
        }

        for c in &mut conns {
            if !c.dead {
                c.flush();
            }
        }
        conns.retain(|c| !c.dead);

        let due = t.as_secs() >= next_status;
        if due || (unheard == 0 && !mesh_reported) {
            if due {
                next_status = t.as_secs() + o.status_every;
            }
            mesh_reported = unheard == 0;
            // One write per round: stdout is line-buffered, and a write per
            // line would cost a syscall per hosted node.
            status.clear();
            for core in &mut cores {
                // Decisions wait for the tick; the reported clocks are at `t`.
                core.advance_to(t);
                let st = core.state();
                let heard = st
                    .slots
                    .iter()
                    .filter(|e| e.slot.estimate.is_some())
                    .count();
                let mode = match st.mode() {
                    Mode::Fast => "fast",
                    Mode::Slow => "slow",
                };
                let _ = writeln!(
                    status,
                    "status id={} t={:.6} logical={:.6} max_est={:.6} mode={mode} peers_heard={heard}",
                    st.id().0,
                    t.as_secs(),
                    st.logical(),
                    st.max_estimate(),
                );
            }
            let mut out = std::io::stdout().lock();
            let _ = out.write_all(status.as_bytes());
            let _ = out.flush();
        }

        std::thread::sleep(Duration::from_millis(2));
    }

    // Graceful exit: wave goodbye, give the frames a moment to drain.
    for c in &mut conns {
        if !c.dead {
            c.queue(&Frame::Shutdown);
        }
    }
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline && conns.iter().any(|c| !c.dead && !c.outbuf.is_empty()) {
        for c in &mut conns {
            if !c.dead {
                c.flush();
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    #[cfg(unix)]
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    // The reader may have closed stdout by now; like the status block,
    // ignore the broken pipe instead of panicking on it.
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(b"shutdown clean\n");
    let _ = out.flush();
    Ok(())
}

/// Feeds one flood to a hosted core (the core enforces the §3.1 delivery
/// rule) and counts it off `unheard` if it is the first the core hears
/// from `src`.
fn deliver(
    core: &mut NodeCore,
    unheard: &mut usize,
    t: SimTime,
    src: NodeId,
    sent_at: SimTime,
    msg: FloodMsg,
) {
    let fresh = *unheard > 0
        && core
            .state()
            .slots
            .get(src)
            .is_some_and(|s| s.estimate.is_none());
    let merged = core.on_message(t, src, sent_at, msg);
    if fresh && merged.is_some_and(|m| m.estimate_written) {
        *unheard -= 1;
    }
}

/// The hosted core for global ID `dst`, if it is local.
fn core_for(cores: &mut [NodeCore], first: u32, dst: NodeId) -> Option<&mut NodeCore> {
    dst.0
        .checked_sub(first)
        .and_then(|k| usize::try_from(k).ok())
        .and_then(|k| cores.get_mut(k))
}

fn dial(peer: &str) -> Result<Stream, String> {
    if let Some(path) = peer.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let s = UnixStream::connect(path).map_err(|e| format!("cannot dial {peer}: {e}"))?;
            s.set_nonblocking(true)
                .map_err(|e| format!("cannot configure {peer}: {e}"))?;
            return Ok(Stream::Unix(s));
        }
        #[cfg(not(unix))]
        return Err(format!("unix sockets unsupported on this platform: {peer}"));
    }
    let s = TcpStream::connect(peer).map_err(|e| format!("cannot dial {peer}: {e}"))?;
    s.set_nonblocking(true)
        .map_err(|e| format!("cannot configure {peer}: {e}"))?;
    Ok(Stream::Tcp(s))
}
