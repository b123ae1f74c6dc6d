//! `serve_stream`: `f2pm serve --models-dir` in its own process, fed
//! simulated host lives open loop.
//!
//! The server serves a REP-Tree artifact trained in set-up, with
//! `--threshold 1e12 --hits 1`, so every estimate comes back as a pushed
//! `Alert`. One generator thread per connection (at most nproc of each)
//! replays lives (datapoints, then `Fail`) in batches of 40 datapoints due
//! every millisecond, interleaving `PredictRequest`s and a once-a-second
//! `MetricsRequest`. Every time is taken from the batch's due time, so a
//! stalled generator or server shows up as latency. `monitor`, `serve`
//! and `obs` do nearly all the work; no model is fitted.

use crate::corpus::{self, REFERENCE_SEED};
use crate::procfs;
use crate::report::{median, quantile, v, Outcome};
use crate::trace::Tracer;
use crate::Args;
use bytes::BytesMut;
use f2pm::OnlinePredictor;
use f2pm_features::{aggregate_run, AggregationConfig, Dataset};
use f2pm_ml::persist::SavedModel;
use f2pm_ml::{RepTree, RepTreeParams};
use f2pm_monitor::wire::{FrameDecoder, Message, PROTOCOL_VERSION};
use f2pm_monitor::RunData;
use f2pm_registry::{ArtifactMeta, ModelStore};
use f2pm_serve::{AlertPolicy, ModelRegistry, PublishedEstimate, ServeMetrics, ShardPool};
use f2pm_sim::SimRng;
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_CONNECTIONS: usize = 2;
/// Datapoints per batch; one batch per connection is due every TICK,
/// i.e. 40 000 datapoints/s per connection.
const BATCH: usize = 40;
const TICK: Duration = Duration::from_millis(1);
/// The first second of the stream is not timed.
const WARMUP_S: f64 = 1.0;
/// A PredictRequest follows every PREDICT_EVERY-th datapoint of a
/// connection: the cadence of the repository's serve load generator
/// (`crates/bench/src/bin/loadgen.rs`), 4 000 predicts/s per connection.
const PREDICT_EVERY: u64 = 10;
/// Connection 0 scrapes the exposition every this many batches.
const SCRAPE_EVERY: usize = 1000;
const TRAIN_LIVES: usize = 12;
const POOL_LIVES: usize = 16;
/// How long replies may trail the last batch before they count as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// One estimate the server must push: from the closing datapoint `j` of
/// a life.
#[derive(Clone, Copy)]
struct Expected {
    j: usize,
    t: f64,
    rttf: f64,
    /// Realized RTTF of the life at `t`.
    actual: f64,
}

struct Life {
    /// Encoded Datapoint frames back to back, `frame_len` bytes each.
    frames: Vec<u8>,
    fail_frame: Vec<u8>,
    datapoints: usize,
    expected: Vec<Expected>,
}

struct Corpus {
    lives: Vec<Life>,
    frame_len: usize,
    /// Every (t, rttf) the board may legitimately answer a predict with.
    estimates: HashSet<(u64, u64)>,
    /// Raw runs of the pool, for the replayed per-call measurements.
    runs: Vec<RunData>,
}

/// Train the served REP-Tree on the reference lives and publish it.
fn publish_model(store: &ModelStore) -> Result<(), String> {
    let agg = AggregationConfig::default();
    let runs = corpus::lives(REFERENCE_SEED, TRAIN_LIVES);
    let points: Vec<_> = runs
        .iter()
        .flat_map(|r| aggregate_run(&corpus::run_data(r), &agg))
        .filter(|p| p.rttf.is_some())
        .collect();
    let ds = Dataset::from_points_with(&points, &agg);
    let tree = RepTree::new(RepTreeParams::default())
        .fit_tree(&ds.x, &ds.y)
        .map_err(|e| e.to_string())?;
    let meta = ArtifactMeta::new("rep_tree", agg, ds.names.clone(), f64::NAN);
    store
        .publish(&meta, &SavedModel::RepTree(tree))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Encode the pool lives and replay them offline through
/// `OnlinePredictor` with the published artifact: the estimates the
/// server must push, bit for bit.
fn make_corpus(store: &ModelStore) -> Result<Corpus, String> {
    let (_, meta, saved) = store
        .load_active()
        .map_err(|e| e.to_string())?
        .ok_or("store has no active generation")?;
    let mut predictor = OnlinePredictor::new(saved.into_model(), &meta.columns, meta.agg);
    let runs: Vec<RunData> = corpus::lives(REFERENCE_SEED + 1, POOL_LIVES)
        .iter()
        .map(corpus::run_data)
        .collect();
    let mut lives = Vec::new();
    let mut estimates = HashSet::new();
    let mut frame_len = 0;
    for run in &runs {
        let mut frames = BytesMut::new();
        let mut expected = Vec::new();
        predictor.reset();
        for (j, d) in run.datapoints.iter().enumerate() {
            let before = frames.len();
            Message::Datapoint(*d).encode_into(&mut frames);
            frame_len = frames.len() - before;
            if let Some(rttf) = predictor.push(*d) {
                let actual = run.rttf_at(d.t_gen).ok_or("pool life did not fail")?;
                expected.push(Expected {
                    j,
                    t: d.t_gen,
                    rttf,
                    actual,
                });
                estimates.insert((d.t_gen.to_bits(), rttf.to_bits()));
            }
        }
        let fail = run.fail_time.ok_or("pool life did not fail")?;
        lives.push(Life {
            frames: frames.to_vec(),
            fail_frame: Message::Fail { t: fail }.encode().to_vec(),
            datapoints: run.datapoints.len(),
            expected,
        });
    }
    Ok(Corpus {
        lives,
        frame_len,
        estimates,
        runs,
    })
}

/// The server process; killed and reaped when dropped.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(f2pm: &Path, models: &Path) -> Result<Server, String> {
        let mut child = Command::new(f2pm)
            .arg("serve")
            .arg("--models-dir")
            .arg(models)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threshold",
                "1e12",
                "--hits",
                "1",
            ])
            // A bound in case this process dies without reaping it.
            .args(["--seconds", "170"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", f2pm.display()))?;
        // The server prints "serving ... on <addr> (...)" once it listens.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let server = Server {
            child,
            addr: addr.clone().unwrap_or_default(),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("server did not report its address: {line:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn setup(args: &Args, i: usize) -> Result<(ModelStore, Corpus, Server), String> {
    let dir = args.work_dir.join(format!("models-{i}"));
    let store = ModelStore::open(&dir).map_err(|e| e.to_string())?;
    publish_model(&store)?;
    let corpus = make_corpus(&store)?;
    let server = Server::start(&args.f2pm, &dir)?;
    Ok((store, corpus, server))
}

/// The open-loop schedule: connection `c`'s batch `b` is due at
/// `t0 + b * TICK + c * TICK / connections`, so connections interleave
/// rather than burst together.
struct Schedule {
    t0: Instant,
    connections: usize,
    batches: usize,
    warm_batches: usize,
    /// Batches from this index on are traced (`batches` when untraced).
    traced_from: usize,
}

impl Schedule {
    fn due(&self, c: usize, b: usize) -> Instant {
        self.t0 + TICK * b as u32 + TICK * c as u32 / self.connections as u32
    }
}

/// A reply the generator expects on connection `conn`.
struct Pending {
    conn: usize,
    due: Instant,
    batch: usize,
    kind: PendingKind,
}

enum PendingKind {
    Estimate {
        pass: usize,
        life: usize,
        e: Expected,
    },
    Predict,
    Scrape,
}

/// One connection's position in its replay: lives in a seeded order,
/// reshuffled every pass over the pool.
struct Feed<'a> {
    corpus: &'a Corpus,
    host: u32,
    rng: SimRng,
    order: Vec<usize>,
    /// Datapoints sent so far on this connection.
    sent: u64,
    pass: usize,
    slot: usize,
    j: usize,
    next_expected: usize,
}

impl<'a> Feed<'a> {
    fn new(corpus: &'a Corpus, host: u32, seed: u64) -> Self {
        let mut rng = corpus::choice_rng(seed ^ u64::from(host));
        let mut order: Vec<usize> = (0..corpus.lives.len()).collect();
        corpus::shuffle(&mut rng, &mut order);
        Feed {
            corpus,
            host,
            rng,
            order,
            sent: 0,
            pass: 0,
            slot: 0,
            j: 0,
            next_expected: 0,
        }
    }

    /// Encode the next BATCH datapoints (and any `Fail` among them) into
    /// `buf`, with a PredictRequest after every PREDICT_EVERY-th
    /// datapoint, and list the replies they must produce.
    fn batch(
        &mut self,
        conn: usize,
        due: Instant,
        b: usize,
        buf: &mut BytesMut,
        expect: &mut Vec<Pending>,
    ) {
        let fl = self.corpus.frame_len;
        buf.clear();
        for _ in 0..BATCH {
            let li = self.order[self.slot];
            let life = &self.corpus.lives[li];
            buf.extend_from_slice(&life.frames[self.j * fl..(self.j + 1) * fl]);
            if let Some(&e) = life
                .expected
                .get(self.next_expected)
                .filter(|e| e.j == self.j)
            {
                let kind = PendingKind::Estimate {
                    pass: self.pass,
                    life: li,
                    e,
                };
                expect.push(Pending {
                    conn,
                    due,
                    batch: b,
                    kind,
                });
                self.next_expected += 1;
            }
            self.j += 1;
            if self.j == life.datapoints {
                buf.extend_from_slice(&life.fail_frame);
                (self.j, self.next_expected) = (0, 0);
                self.slot += 1;
                if self.slot == self.order.len() {
                    (self.slot, self.pass) = (0, self.pass + 1);
                    corpus::shuffle(&mut self.rng, &mut self.order);
                }
            }
            self.sent += 1;
            if self.sent.is_multiple_of(PREDICT_EVERY) {
                Message::PredictRequest { host_id: self.host }.encode_into(buf);
                expect.push(Pending {
                    conn,
                    due,
                    batch: b,
                    kind: PendingKind::Predict,
                });
            }
        }
    }
}

/// What the generator sent.
#[derive(Default)]
struct Sent {
    datapoints: u64,
    after_warmup: u64,
    estimates: u64,
    predicts: u64,
    late_ms_max: f64,
    /// Server CPU per thread when the warm-up ended.
    cpu_at_warm: Vec<(String, u64)>,
}

/// What came back on one connection.
#[derive(Default)]
struct Received {
    /// Latencies from due time, [untraced, traced].
    estimate_ms: [Vec<f64>; 2],
    predict_ms: [Vec<f64>; 2],
    scrapes: Vec<(f64, usize)>,
    pushed_ok: u64,
    predicts_ok: u64,
    wrong: u64,
    /// (life, j, rttf, actual) of the estimates of the first pass.
    first_pass: Vec<(usize, usize, f64, f64)>,
}

/// The generator: sends every connection's batches at their due times
/// from this one thread. It waits for the schedule with `sleep`, never
/// for another thread; replies are read by [`receive`].
#[allow(clippy::too_many_arguments)]
fn generate(
    sched: &Schedule,
    corpus: &Corpus,
    streams: &mut [TcpStream],
    seed: u64,
    server_pid: u32,
    expect: std::sync::mpsc::Sender<Pending>,
    tracing: &AtomicBool,
    tracer: &mut Tracer,
) -> Result<Sent, String> {
    let mut feeds: Vec<Feed> = (0..streams.len())
        .map(|c| Feed::new(corpus, c as u32 + 1, seed))
        .collect();
    let mut sent = Sent::default();
    let mut buf = BytesMut::with_capacity(BATCH * corpus.frame_len + 64);
    let mut pending = Vec::new();
    for b in 0..sched.batches {
        if b == sched.traced_from {
            tracing.store(true, Ordering::SeqCst);
        }
        for (c, stream) in streams.iter_mut().enumerate() {
            let due = sched.due(c, b);
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            feeds[c].batch(c, due, b, &mut buf, &mut pending);
            if c == 0 && b > 0 && b % SCRAPE_EVERY == 0 {
                Message::MetricsRequest.encode_into(&mut buf);
                pending.push(Pending {
                    conn: c,
                    due,
                    batch: b,
                    kind: PendingKind::Scrape,
                });
            }
            for p in pending.drain(..) {
                match p.kind {
                    PendingKind::Estimate { .. } => sent.estimates += 1,
                    PendingKind::Predict => sent.predicts += 1,
                    PendingKind::Scrape => {}
                }
                // Announced before the write, so the reader knows of
                // every reply before it can arrive.
                expect.send(p).map_err(|_| "reply reader stopped")?;
            }
            let write = |s: &mut TcpStream| s.write_all(&buf);
            if b >= sched.traced_from {
                tracer.span("send", |_| write(stream))
            } else {
                write(stream)
            }
            .map_err(|e| e.to_string())?;
            sent.late_ms_max = sent
                .late_ms_max
                .max((Instant::now() - due).as_secs_f64() * 1e3);
            sent.datapoints += BATCH as u64;
            if b >= sched.warm_batches {
                sent.after_warmup += BATCH as u64;
            }
        }
        if b + 1 == sched.warm_batches {
            sent.cpu_at_warm = procfs::thread_cpu_ns(server_pid);
        }
    }
    Ok(sent)
}

/// The reply reader: one thread, one epoll over every connection. Each
/// reply is matched with what the generator announced: alerts come from
/// the host's shard in order, predict and scrape replies from the edge
/// in order, and the two streams interleave.
fn receive(
    sched: &Schedule,
    corpus: &Corpus,
    streams: &mut [TcpStream],
    expect: std::sync::mpsc::Receiver<Pending>,
    tracing: &AtomicBool,
    tracer: &mut Tracer,
) -> Result<Vec<Received>, String> {
    let io = |e: io::Error| e.to_string();
    let poller = f2pm_serve::poller::Poller::new().map_err(io)?;
    for (c, s) in streams.iter().enumerate() {
        poller
            .add(s.as_raw_fd(), c as u64, f2pm_serve::poller::Interest::READ)
            .map_err(io)?;
    }
    let n = streams.len();
    let mut alerts: Vec<VecDeque<Pending>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut replies: Vec<VecDeque<Pending>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut decoders: Vec<FrameDecoder> = (0..n).map(|_| FrameDecoder::new()).collect();
    let mut got: Vec<Received> = (0..n).map(|_| Received::default()).collect();
    let mut events = Vec::new();
    let mut generator_done = false;
    let mut deadline = None;
    loop {
        // Take every announcement made so far.
        loop {
            match expect.try_recv() {
                Ok(p) => match p.kind {
                    PendingKind::Estimate { .. } => alerts[p.conn].push_back(p),
                    _ => replies[p.conn].push_back(p),
                },
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        if generator_done {
            if alerts.iter().chain(&replies).all(VecDeque::is_empty) {
                break;
            }
            if Instant::now() >= *deadline.get_or_insert(Instant::now() + DRAIN_TIMEOUT) {
                break;
            }
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .map_err(io)?;
        for ev in events.clone() {
            let c = ev.token as usize;
            let traced = tracing.load(Ordering::SeqCst);
            let mut read = || -> Result<Vec<Message>, String> {
                match decoders[c].fill_from(&mut streams[c]) {
                    Ok(0) => Err("server closed a connection".into()),
                    Ok(_) => {
                        let mut msgs = Vec::new();
                        while let Some(m) = decoders[c].try_frame().map_err(io)? {
                            msgs.push(m);
                        }
                        Ok(msgs)
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(Vec::new()),
                    Err(e) => Err(e.to_string()),
                }
            };
            let msgs = if traced {
                tracer.span("receive", |_| read())
            } else {
                read()
            }?;
            let arrived = Instant::now();
            // Replies can only follow their announcement, which is
            // already in the channel.
            while let Ok(p) = expect.try_recv() {
                match p.kind {
                    PendingKind::Estimate { .. } => alerts[p.conn].push_back(p),
                    _ => replies[p.conn].push_back(p),
                }
            }
            let g = &mut got[c];
            for msg in msgs {
                let queue = match msg {
                    Message::Alert { .. } => &mut alerts[c],
                    _ => &mut replies[c],
                };
                let Some(p) = queue.pop_front() else {
                    g.wrong += 1;
                    continue;
                };
                let ms = (arrived - p.due).as_secs_f64() * 1e3;
                let phase = usize::from(p.batch >= sched.traced_from);
                let timed = p.batch >= sched.warm_batches;
                let host = c as u32 + 1;
                match (p.kind, msg) {
                    (
                        PendingKind::Estimate { pass, life, e },
                        Message::Alert {
                            host_id, t, rttf, ..
                        },
                    ) => {
                        if host_id == host
                            && t.to_bits() == e.t.to_bits()
                            && rttf.to_bits() == e.rttf.to_bits()
                        {
                            g.pushed_ok += 1;
                            if timed {
                                g.estimate_ms[phase].push(ms);
                            }
                            if pass == 0 {
                                g.first_pass.push((life, e.j, e.rttf, e.actual));
                            }
                        } else {
                            g.wrong += 1;
                        }
                    }
                    (
                        PendingKind::Predict,
                        Message::RttfEstimate {
                            host_id, t, rttf, ..
                        },
                    ) => {
                        let valid = host_id == host
                            && rttf.is_none_or(|r| {
                                corpus.estimates.contains(&(t.to_bits(), r.to_bits()))
                            });
                        if valid {
                            g.predicts_ok += 1;
                            if timed {
                                g.predict_ms[phase].push(ms);
                            }
                        } else {
                            g.wrong += 1;
                        }
                    }
                    (PendingKind::Scrape, Message::MetricsText { text }) => {
                        g.scrapes.push((ms, text.len()))
                    }
                    _ => g.wrong += 1,
                }
            }
        }
    }
    Ok(got)
}

/// Scrape the exposition over an open connection.
fn scrape(stream: &mut TcpStream) -> Result<String, String> {
    let io = |e: io::Error| e.to_string();
    stream.set_read_timeout(Some(DRAIN_TIMEOUT)).map_err(io)?;
    Message::MetricsRequest.write_to(stream).map_err(io)?;
    let mut decoder = FrameDecoder::new();
    loop {
        match decoder.read_frame(stream).map_err(io)? {
            Some(Message::MetricsText { text }) => return Ok(text),
            Some(_) => continue,
            None => return Err("server closed before answering the scrape".into()),
        }
    }
}

/// Sum of every sample of `name` (all label sets) in an exposition.
fn exposed(text: &str, name: &str) -> Option<f64> {
    let mut found = None;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        if !(rest.starts_with(' ') || rest.starts_with('{')) {
            continue;
        }
        let value: f64 = rest.rsplit(' ').next()?.parse().ok()?;
        *found.get_or_insert(0.0) += value;
    }
    found
}

/// A quantile (µs, bucket upper bound) of the per-shard queue-wait
/// histograms summed over shards.
fn queue_wait_quantile(text: &str, q: f64) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("f2pm_serve_shard_queue_wait_us_bucket{") else {
            continue;
        };
        let le = rest.split("le=\"").nth(1)?.split('"').next()?;
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        let count: f64 = rest.rsplit(' ').next()?.parse().ok()?;
        match buckets.iter_mut().find(|(b, _)| *b == bound) {
            Some((_, c)) => *c += count,
            None => buckets.push((bound, count)),
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    buckets
        .iter()
        .find(|(_, cumulative)| *cumulative >= q * total)
        .map(|(bound, _)| *bound)
}

/// What one server session measured.
struct Session {
    /// Estimate latencies from due time, [untraced, traced].
    estimate_ms: [Vec<f64>; 2],
    predict_ms: Vec<f64>,
    scrapes: Vec<(f64, usize)>,
    late_ms_max: f64,
    /// Server CPU per timed datapoint: all threads, edge, shards.
    cpu_us_per_dp: [f64; 3],
    rss_mib: f64,
    queue_wait_us: [f64; 2],
    sent: Sent,
    scraped: f64,
    drops: f64,
    pushed: u64,
    predicts_ok: u64,
    wrong: u64,
    first_pass: Vec<(usize, usize, f64, f64)>,
}

/// Stream `seconds` (plus warm-up) into `server`, then scrape it and stop
/// it.
fn session(
    args: &Args,
    corpus: &Corpus,
    server: Server,
    connections: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let batches = ((WARMUP_S + seconds) / TICK.as_secs_f64()).round() as usize;
    let warm_batches = (WARMUP_S / TICK.as_secs_f64()).round() as usize;
    let traced_from = if args.trace {
        warm_batches + (batches - warm_batches) / 2
    } else {
        batches
    };
    let io = |e: io::Error| e.to_string();
    let mut streams = Vec::new();
    for c in 0..connections {
        let mut s = TcpStream::connect(&server.addr).map_err(io)?;
        s.set_nodelay(true).map_err(io)?;
        Message::Hello {
            version: PROTOCOL_VERSION,
            host_id: c as u32 + 1,
        }
        .write_to(&mut s)
        .map_err(io)?;
        streams.push(s);
    }
    let mut read_halves = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<Vec<_>>>()
        .map_err(io)?;
    let sched = Schedule {
        t0: Instant::now() + Duration::from_millis(20),
        connections,
        batches,
        warm_batches,
        traced_from,
    };
    let mut reader_tracer = Tracer::with_origin(tracer.origin());
    let tracing = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel();
    let (sent, got) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            receive(
                &sched,
                corpus,
                &mut read_halves,
                rx,
                &tracing,
                &mut reader_tracer,
            )
        });
        let sent = generate(
            &sched,
            corpus,
            &mut streams,
            args.seed,
            server.pid(),
            tx,
            &tracing,
            tracer,
        );
        (sent, reader.join().expect("reply reader panicked"))
    });
    let (sent, got) = (sent?, got?);
    tracer.extend(reader_tracer);
    let cpu_end = procfs::thread_cpu_ns(server.pid());
    let text = scrape(&mut streams[0])?;
    let rss_mib = procfs::peak_rss_mib(server.pid()).ok_or("no VmHWM for the server")?;
    drop((streams, read_halves, server));

    let timed_dp = sent.after_warmup as f64;
    let cpu_of = |prefix: &str| {
        let spent = procfs::cpu_ns(&cpu_end, prefix) - procfs::cpu_ns(&sent.cpu_at_warm, prefix);
        spent as f64 / 1e3 / timed_dp
    };
    let sum = |f: fn(&Received) -> u64| got.iter().map(f).sum::<u64>();
    let merged = |f: fn(&Received) -> &Vec<f64>| {
        got.iter()
            .flat_map(|g| f(g).iter().copied())
            .collect::<Vec<f64>>()
    };
    let qw = |q| queue_wait_quantile(&text, q).unwrap_or(0.0);
    Ok(Session {
        estimate_ms: [merged(|g| &g.estimate_ms[0]), merged(|g| &g.estimate_ms[1])],
        predict_ms: merged(|g| &g.predict_ms[0]),
        scrapes: got.iter().flat_map(|g| g.scrapes.iter().copied()).collect(),
        late_ms_max: sent.late_ms_max,
        cpu_us_per_dp: [cpu_of(""), cpu_of("f2pm-serve-reac"), cpu_of("f2pm-shard-")],
        rss_mib,
        queue_wait_us: [qw(0.5), qw(0.9)],
        scraped: exposed(&text, "f2pm_serve_datapoints_total").unwrap_or(-1.0),
        drops: exposed(&text, "f2pm_serve_dropped_frames_total").unwrap_or(-1.0)
            + exposed(&text, "f2pm_serve_conns_evicted_slow").unwrap_or(-1.0),
        pushed: sum(|g| g.pushed_ok),
        predicts_ok: sum(|g| g.predicts_ok),
        wrong: sum(|g| g.wrong),
        first_pass: got
            .into_iter()
            .next()
            .map(|g| g.first_pass)
            .unwrap_or_default(),
        sent,
    })
}

/// Server sessions per run, each with a freshly set-up server. Which
/// cores the server's threads settle on differs from one server process
/// to the next and moves its latency by ~10%; the median over sessions
/// keeps that out of the result.
const SESSIONS: usize = 3;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = MAX_CONNECTIONS.min(nproc);
    let mut tracer = Tracer::new();

    // Each session sets up from scratch (train + publish the artifact,
    // replay the pool offline, boot the server), then streams.
    let mut setups = Vec::new();
    let mut sessions = Vec::new();
    let mut kept = None;
    for i in 0..SESSIONS {
        let t = Instant::now();
        let (store, corpus, server) = setup(args, i)?;
        setups.push(t.elapsed().as_secs_f64());
        sessions.push(session(
            args,
            &corpus,
            server,
            connections,
            args.seconds / SESSIONS as f64,
            &mut tracer,
        )?);
        kept = Some((store, corpus));
    }
    let (store, corpus) = kept.expect("SESSIONS >= 1");
    out.e2e("setup_s", v(median(&setups), setups.len()));

    let total = |f: fn(&Session) -> u64| sessions.iter().map(f).sum::<u64>();
    let (sent_dp, expected, predicts_sent) = (
        total(|s| s.sent.datapoints),
        total(|s| s.sent.estimates),
        total(|s| s.sent.predicts),
    );
    let (pushed, predicts_ok, wrong) = (
        total(|s| s.pushed),
        total(|s| s.predicts_ok),
        total(|s| s.wrong),
    );
    out.attempted += expected + predicts_sent;
    out.failed +=
        (expected - pushed.min(expected)) + (predicts_sent - predicts_ok.min(predicts_sent));
    out.check(
        "every pushed estimate equals the offline OnlinePredictor replay",
        pushed == expected && wrong == 0,
    );
    out.check(
        "every PredictRequest answered with a served estimate",
        predicts_ok == predicts_sent,
    );
    out.check(
        "scraped f2pm_serve_datapoints_total equals datapoints sent",
        sessions
            .iter()
            .all(|s| s.scraped == s.sent.datapoints as f64),
    );
    out.check(
        "zero dropped frames and evicted connections",
        sessions.iter().all(|s| s.drops == 0.0),
    );

    // Quality over the first pass of connection 0, in a fixed order.
    let mut first = sessions[0].first_pass.clone();
    first.sort_by_key(|&(life, j, _, _)| (life, j));
    let (pred, actual): (Vec<f64>, Vec<f64>) = first.iter().map(|&(_, _, p, a)| (p, a)).unzip();
    let pool_estimates: usize = corpus.lives.iter().map(|l| l.expected.len()).sum();
    out.check(
        "the first pass delivered every estimate of the pool",
        pred.len() == pool_estimates,
    );
    if pred.is_empty()
        || sessions
            .iter()
            .any(|s| s.estimate_ms[0].is_empty() || s.predict_ms.is_empty())
    {
        return Err("a session timed no estimate or predict".into());
    }
    out.e2e(
        "quality_rel_smae",
        v(corpus::rel_smae(&pred, &actual), pred.len()),
    );

    // Each figure is the median over sessions of the session's figure.
    let over = |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<f64>>());
    let samples = |f: fn(&Session) -> usize| sessions.iter().map(f).sum::<usize>();
    let n_est = samples(|s| s.estimate_ms[0].len());
    let timed_dp = samples(|s| s.sent.after_warmup as usize);
    let cpu = over(&|s| s.cpu_us_per_dp[0]);
    out.e2e("op_ms", v(over(&|s| median(&s.estimate_ms[0])), n_est));
    out.e2e("cpu_us_per_op", v(cpu, timed_dp));
    out.e2e("peak_rss_mib", v(over(&|s| s.rss_mib), SESSIONS));

    out.notes.push(format!(
        "stream: {SESSIONS} sessions x {connections} connections x {} dp/s for {:.1} s after a {WARMUP_S} s warm-up; \
         batches of {BATCH} every {} ms; {} lives in the pool",
        (BATCH as f64 / TICK.as_secs_f64()) as u64,
        args.seconds / SESSIONS as f64,
        TICK.as_millis(),
        corpus.lives.len()
    ));
    let scraped: f64 = sessions.iter().map(|s| s.scraped).sum();
    let drops: f64 = sessions.iter().map(|s| s.drops).sum();
    out.notes.push(format!(
        "datapoints sent {sent_dp}, scraped {scraped}; estimates expected {expected}, pushed {pushed}; \
         predicts sent {predicts_sent}, answered {predicts_ok}; unexpected replies {wrong}"
    ));

    let n_pre = samples(|s| s.predict_ms.len());
    let predict_p50 = over(&|s| median(&s.predict_ms));
    out.layer("serve.predict_p50_ms", v(predict_p50, n_pre));
    out.notes.push(format!(
        "PredictRequest round trip from due time: p50 {predict_p50:.4} ms (n={n_pre})"
    ));
    out.layer(
        "serve.estimate_p90_ms",
        v(over(&|s| quantile(&s.estimate_ms[0], 0.9)), n_est),
    );
    out.layer(
        "serve.estimate_p99_ms",
        v(over(&|s| quantile(&s.estimate_ms[0], 0.99)), n_est),
    );
    let late = sessions.iter().map(|s| s.late_ms_max).fold(0.0, f64::max);
    out.layer(
        "client.late_ms_max",
        v(late, samples(|s| s.sent.datapoints as usize) / BATCH),
    );
    let (edge, shard) = (over(&|s| s.cpu_us_per_dp[1]), over(&|s| s.cpu_us_per_dp[2]));
    out.layer("serve.edge_cpu_us_per_dp", v(edge, timed_dp));
    out.layer("serve.shard_cpu_us_per_dp", v(shard, timed_dp));
    out.layer(
        "serve.queue_wait_p50_us",
        v(over(&|s| s.queue_wait_us[0]), SESSIONS),
    );
    out.layer(
        "serve.queue_wait_p90_us",
        v(over(&|s| s.queue_wait_us[1]), SESSIONS),
    );
    let scrapes: Vec<(f64, usize)> = sessions
        .iter()
        .flat_map(|s| s.scrapes.iter().copied())
        .collect();
    if !scrapes.is_empty() {
        let ms: Vec<f64> = scrapes.iter().map(|s| s.0).collect();
        let kib: Vec<f64> = scrapes.iter().map(|s| s.1 as f64 / 1024.0).collect();
        out.layer("obs.scrape_ms", v(median(&ms), ms.len()));
        out.layer("obs.exposition_kib", v(median(&kib), kib.len()));
    }
    for (name, value) in [
        ("serve.datapoints_sent", sent_dp as f64),
        ("serve.datapoints_scraped", scraped),
        ("serve.estimates_expected", expected as f64),
        ("serve.estimates_pushed", pushed as f64),
        ("serve.predicts_sent", predicts_sent as f64),
        ("serve.predicts_answered", predicts_ok as f64),
        ("serve.drops", drops),
    ] {
        out.layer(name, v(value, SESSIONS));
    }

    if args.trace {
        let untraced = over(&|s| median(&s.estimate_ms[0]));
        let traced = over(&|s| median(&s.estimate_ms[1]));
        let overhead = 100.0 * (traced - untraced) / untraced;
        out.layer(
            "trace.overhead_pct",
            v(overhead, samples(|s| s.estimate_ms[1].len())),
        );
        out.notes.push(format!(
            "tracing overhead: traced estimate p50 {traced:.4} ms vs untraced {untraced:.4} ms ({overhead:+.2}%)"
        ));
        let per_dp = replay_calls(&store, &corpus, &mut tracer, &mut out)?;
        let pool_dp: usize = corpus.runs.iter().map(|r| r.datapoints.len()).sum();
        let windows_per_dp = pool_estimates as f64 / pool_dp as f64;
        let predicts_per_dp = predicts_sent as f64 / sent_dp as f64;
        let parts = [
            ("decode", per_dp.decode_ns * 1e-3),
            ("window", per_dp.window_us * windows_per_dp),
            ("predict", per_dp.predict_us * windows_per_dp),
            (
                "board",
                per_dp.board_ns * 1e-3 * (windows_per_dp + predicts_per_dp),
            ),
            (
                "encode",
                per_dp.encode_ns * 1e-3 * (windows_per_dp + predicts_per_dp),
            ),
        ];
        let attributed: f64 = parts.iter().map(|p| p.1).sum();
        out.layer(
            "serve.unattributed_cpu_us_per_dp",
            v(cpu - attributed, timed_dp),
        );
        out.notes.push(format!(
            "attribution server CPU {cpu:.3} us/dp: edge threads {edge:.3}, shard threads {shard:.3}, other {:.3}",
            cpu - edge - shard
        ));
        for (name, us) in parts {
            out.notes
                .push(format!("attribution   per-call {name:<8} {us:>8.3} us/dp"));
        }
        out.notes.push(format!(
            "attribution   unattributed     {:>8.3} us/dp ({:.1}% of server CPU)",
            cpu - attributed,
            100.0 * (cpu - attributed) / cpu
        ));
        tracer
            .write_jsonl(&args.spans_path())
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

struct PerCall {
    decode_ns: f64,
    encode_ns: f64,
    window_us: f64,
    predict_us: f64,
    board_ns: f64,
}

const CALL_REPS: usize = 5;

/// Time the server's per-datapoint public calls on the workload's own
/// bytes and estimates, in this process.
fn replay_calls(
    store: &ModelStore,
    corpus: &Corpus,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<PerCall, String> {
    let bytes: Vec<u8> = corpus
        .lives
        .iter()
        .flat_map(|l| l.frames.iter().chain(&l.fail_frame).copied())
        .collect();
    let frames: usize = corpus.lives.iter().map(|l| l.datapoints + 1).sum();
    let replies: Vec<Message> = corpus
        .lives
        .iter()
        .flat_map(|l| l.expected.iter())
        .map(|e| Message::Alert {
            host_id: 1,
            t: e.t,
            rttf: e.rttf,
            threshold: 1e12,
        })
        .collect();
    let (_, meta, saved) = store
        .load_active()
        .map_err(|e| e.to_string())?
        .ok_or("no artifact")?;
    let width = meta.columns.len();
    let mut predictor = OnlinePredictor::new(saved.clone().into_model(), &meta.columns, meta.agg);
    let registry =
        ModelRegistry::new(saved, meta.columns.clone(), meta.agg).map_err(|e| e.to_string())?;
    let pool = ShardPool::start(
        1,
        64,
        64,
        Arc::clone(&registry),
        AlertPolicy::default(),
        Arc::new(ServeMetrics::new()),
    );
    let board = pool.board();
    let model = registry.shared_model();

    let (mut decode, mut encode, mut window, mut predict, mut boardt) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut windows = 0usize;
    for _ in 0..CALL_REPS {
        let mut decoder = FrameDecoder::new();
        decoder.push_bytes(&bytes);
        let t = Instant::now();
        let n = tr.span("try_frame", |_| {
            let mut n = 0;
            while let Ok(Some(m)) = decoder.try_frame() {
                std::hint::black_box(m);
                n += 1;
            }
            n
        });
        decode.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
        if n != frames {
            out.check("decoder yields every frame of the workload", false);
        }

        let mut buf = BytesMut::with_capacity(replies.len() * 40);
        let t = Instant::now();
        tr.span("encode_into", |_| {
            replies.iter().for_each(|m| m.encode_into(&mut buf))
        });
        encode.push(t.elapsed().as_nanos() as f64 / replies.len() as f64);

        let mut rows = Vec::new();
        windows = 0;
        let t = Instant::now();
        tr.span("push_deferred", |_| {
            for run in &corpus.runs {
                predictor.reset();
                for d in &run.datapoints {
                    windows += usize::from(predictor.push_deferred(*d, &mut rows));
                }
            }
        });
        window.push(t.elapsed().as_secs_f64() * 1e6 / windows.max(1) as f64);

        // Scored in the shard's typical flush size: one batch's windows.
        let per_batch = (BATCH * windows)
            .div_ceil(corpus.runs.iter().map(|r| r.datapoints.len()).sum())
            .max(1);
        let mut estimates = Vec::new();
        let t = Instant::now();
        tr.span("predict_many", |_| -> Result<(), String> {
            for chunk in rows.chunks(per_batch * width) {
                let mut flat = chunk.to_vec();
                f2pm::predict_many(model.as_ref(), width, &mut flat, &mut estimates)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        predict.push(t.elapsed().as_secs_f64() * 1e6 / windows.max(1) as f64);

        let t = Instant::now();
        tr.span("board", |_| {
            for (i, &rttf) in estimates.iter().enumerate() {
                let host = (i % 64) as u32;
                board.publish(
                    host,
                    PublishedEstimate {
                        t: i as f64,
                        rttf,
                        generation: 1,
                    },
                );
                std::hint::black_box(board.get(host));
            }
        });
        boardt.push(t.elapsed().as_nanos() as f64 / estimates.len().max(1) as f64);
    }
    pool.shutdown();
    let per = PerCall {
        decode_ns: median(&decode),
        encode_ns: median(&encode),
        window_us: median(&window),
        predict_us: median(&predict),
        board_ns: median(&boardt),
    };
    out.layer(
        "monitor.decode_ns_per_frame",
        v(per.decode_ns, CALL_REPS * frames),
    );
    out.layer(
        "monitor.encode_ns_per_frame",
        v(per.encode_ns, CALL_REPS * replies.len()),
    );
    out.layer("core.window_us", v(per.window_us, CALL_REPS * windows));
    out.layer(
        "ml.predict_us_per_row",
        v(per.predict_us, CALL_REPS * windows),
    );
    out.layer("serve.board_ns", v(per.board_ns, CALL_REPS * windows));
    Ok(per)
}
