//! `daemon-mix`: an open-loop load against an in-process `hlo_serve`
//! daemon (`Server::spawn` with `ServeConfig::default()`), driven through
//! `hlo_serve::Client` by one process with two sender threads and two
//! connections.
//!
//! Requests arrive on a seeded Poisson schedule at a fixed rate and mix
//! four classes:
//!
//! * `hit`  — a repeat of a hot-set request (every suite program at the
//!   default options; 14 entries, well under `cache_cap`);
//! * `edit` — a one-constant edit to one module of a suite program,
//!   served by partition splicing against the hot-set build;
//! * `cold` — a suite program at a seeded budget, so the options
//!   fingerprint is new and the whole program is rebuilt;
//! * `pgo`  — a `profile_push` that starts a new profile epoch, then a
//!   `ProfileSpec::Server` build. Pushes switch between two profiles of
//!   the program often enough that the aggregate sometimes drifts past
//!   the daemon's threshold.
//!
//! Each request is timed from the moment it was due, so a stall also
//! charges the requests queued behind it. Every reply's `ir_text` is
//! compared byte for byte with an in-process `hlo::optimize` of the same
//! inputs.
//!
//! A run is a few steps, each on a fresh daemon (its spawn and hot-set
//! warm-up are the set-up), so steps do not share cache state. First a
//! closed loop of the mix on one connection, one request at a time, gives
//! the bounded metrics: the process CPU time of each request and the
//! process's peak memory. Then a short ladder of open-loop rates gives
//! the sustainable rate, and the open-loop reference step gives the
//! wall-clock latencies, timed from each request's due time.

use crate::probe::{self, Probe, Speed};
use crate::refs::{self, Arg};
use crate::stats::{self, median, Rng};
use crate::{show, Ctx, Report};
use hlo::HloOptions;
use hlo_ir::fnv1a_64 as fnv;
use hlo_profile::ProfileDb;
use hlo_serve::{
    Client, OptimizeRequest, OptimizeResponse, ProfilePushRequest, ProfileSpec, ServeConfig,
    ServeError, ServeStats, Server,
};
use hlo_suite::Benchmark;
use hlo_vm::{ExecOptions, Tier};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sender threads of an open-loop step, each with its own connection
/// (≤ nproc on the 2-core reference machine).
const SENDERS: usize = 2;

/// Class mix, in percent: hit, edit, cold, pgo. An assumption, not
/// measured traffic (the repository has none). 70% hits make the median
/// request a hit, so `cpu_p50_ms` and `lat_p50_ms` track the read path
/// (cache probe and reply). The 30% writes put the p98 among them, so
/// `cpu_tail_ms` and `lat_tail_ms` track the write classes; a regression
/// in one write class alone moves the tail, not the median. 10% per write
/// class gives each about 120 requests in the reference step, enough for
/// its own median.
const MIX: [u64; 4] = [70, 10, 10, 10];

/// The tail percentile. At the default 30 s, 60 of the closed loop's
/// 3000 requests, 24 of the reference step's 1200 and 13 of the smallest
/// rung's 675 lie beyond it.
const TAIL_P: f64 = 98.0;

/// Offered rate of the reference step, requests per second. An
/// assumption: about a sixth of the knee the ladder finds (~600 requests
/// per second on the reference machine), so requests seldom queue behind
/// one another and the step measures service latency; the ladder
/// measures the daemon under load.
const REF_RATE: f64 = 100.0;

/// The rate ladder, requests per second, around the knee of the
/// reference machine (~600 requests per second).
const LADDER: [f64; 4] = [750.0, 600.0, 450.0, 300.0];

/// Shares of `--seconds` for the closed loop, the reference step and
/// each rung.
const CLOSED_SHARE: f64 = 0.35;
const REF_SHARE: f64 = 0.4;
const RUNG_SHARE: f64 = 0.075;

/// The most requests the closed loop sends per second of `--seconds`: it
/// stops at this many or at its share of the run, whichever comes first.
/// At 30 s on the reference machine its 3000 requests take about 8 s when
/// the host is quiet; a slow host reaches the time limit first.
const CLOSED_MAX_PER_SEC: f64 = 100.0;

/// The closed loop times one round of `probe::reference_work` before
/// every this many requests.
const SPEED_EVERY: usize = 20;

/// Latency limit on the tail latency for the sustainable rate. A cold
/// request (a full optimize of one suite program at a new budget) takes
/// a median ~7 ms on the reference 2-core machine; the limit lets a tail
/// request wait behind a few of them on both workers, about eight cold
/// builds' worth. It is fixed here, once, so the ladder compares like
/// with like across commits.
const LIMIT_MS: f64 = 60.0;

/// Budgets (percent) a cold request may ask for: never the default 100,
/// so the options fingerprint is new. Each program takes each budget at
/// most once per run, which bounds the run length (`MAX_SECONDS`).
const COLD_BUDGETS: std::ops::RangeInclusive<u64> = 101..=150;

/// Programs that receive profile pushes. Switching between their two
/// training profiles (see `training_profiles`) drifts past the default
/// 100‰ threshold for the first two (181‰ each) and stays under it for
/// the last two (12‰ and 5‰), so pgo requests exercise both the stale
/// rebuild and the stable hit. A unit test pins this split.
const PGO_PROGRAMS: [&str; 4] = ["022.li", "124.m88ksim", "134.perl", "147.vortex"];

/// Sender lateness (how late a waiting sender woke up for a due request)
/// past which the generator, not the daemon, would be measured: p99, in
/// milliseconds. On the reference step a later sender marks its
/// wall-clock latencies invalid (the bounded metrics come from the closed
/// loop, which has no schedule to fall behind). On a ladder rung past the
/// knee the daemon keeps both CPUs busy and the senders, which share
/// them, wake late; such a rung misses the limit instead. A single late
/// wake-up (the max) is reported, not failed.
const LATE_P99_MS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Hit,
    Edit,
    Cold,
    Pgo,
}

impl Class {
    const ALL: [Class; 4] = [Class::Hit, Class::Edit, Class::Cold, Class::Pgo];

    fn name(self) -> &'static str {
        crate::CLASSES[self as usize]
    }
}

/// One scheduled request. Everything in it is a pure function of the
/// seed, the step and the suite sources.
#[derive(Debug, Clone)]
pub struct Req {
    pub class: Class,
    /// When the request is due, µs after the step starts.
    pub at_us: u64,
    /// Index into `hlo_suite::all_benchmarks()`.
    pub prog: usize,
    pub kind: Kind,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Hot,
    /// Index into [`Pools::edits`].
    Edit(usize),
    /// Index into [`Pools::colds`].
    Cold(usize),
    /// `slot` indexes `PGO_PROGRAMS`; `profile` picks one of its two
    /// training profiles.
    Pgo {
        slot: usize,
        profile: usize,
    },
}

fn sources(b: &Benchmark) -> Vec<(String, String)> {
    b.sources
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

/// Byte offsets of decimal literals that a one-constant edit may change:
/// outside comments, not hex, not an array size or index, and not on a
/// `global` line.
fn literal_sites(src: &str) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    let mut offset = 0;
    for line in src.split_inclusive('\n') {
        let code = line.split("//").next().unwrap_or("");
        if !code.trim_start().starts_with("global") {
            let bytes = code.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                if bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    let word = &code[start..i];
                    let prev = code[..start].trim_end().chars().last();
                    if word.bytes().all(|c| c.is_ascii_digit()) && prev != Some('[') {
                        sites.push((offset + start, offset + i));
                    }
                } else {
                    i += 1;
                }
            }
        }
        offset += line.len();
    }
    sites
}

/// A one-constant edit of program `b`: the literal at a seeded site of a
/// seeded module becomes `value + bump`. `None` if the edit does not
/// compile (the caller draws again).
fn edit(b: &Benchmark, rng: &mut Rng, bump: u64) -> Option<Vec<(String, String)>> {
    let mut mods = sources(b);
    let m = rng.below(mods.len() as u64) as usize;
    let sites = literal_sites(&mods[m].1);
    if sites.is_empty() {
        return None;
    }
    let (s, e) = sites[rng.below(sites.len() as u64) as usize];
    let value: u64 = mods[m].1[s..e].parse().ok()?;
    mods[m].1.replace_range(s..e, &(value + bump).to_string());
    let refs: Vec<(&str, &str)> = mods.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    hlo_frontc::compile(&refs).ok()?;
    Some(mods)
}

/// The edit and cold inputs a run draws from. The pools are the same for
/// every seed (only their size follows the run length), so seeds differ
/// in which inputs a step takes and in what order, not in the work the
/// largest step holds. Each step takes a seeded subset, so no input
/// repeats within a step (a fresh daemon per step keeps every one of
/// them a miss), and the reference outputs are computed once per input
/// rather than once per request.
pub struct Pools {
    /// `(program, edited module list)`.
    pub edits: Vec<(usize, Vec<(String, String)>)>,
    /// `(program, budget percent)`.
    pub colds: Vec<(usize, u64)>,
}

impl Pools {
    pub fn new(suite: &[Benchmark], size: usize) -> Pools {
        let mut rng = Rng::new(0, 99);
        let mut deck: Vec<usize> = Vec::new();
        let mut next_prog = |rng: &mut Rng| {
            if deck.is_empty() {
                deck = (0..suite.len()).collect();
                rng.shuffle(&mut deck);
            }
            deck.pop().expect("refilled above")
        };
        let mut edits = Vec::with_capacity(size);
        while edits.len() < size {
            let prog = next_prog(&mut rng);
            if let Some(mods) = edit(&suite[prog], &mut rng, edits.len() as u64 + 1) {
                edits.push((prog, mods));
            }
        }
        // Budgets near the default, so a cold build costs about what a
        // default build does; each (program, budget) pair at most once.
        let mut budgets: Vec<Vec<u64>> = suite
            .iter()
            .map(|_| {
                let mut b: Vec<u64> = COLD_BUDGETS.collect();
                rng.shuffle(&mut b);
                b
            })
            .collect();
        let colds = (0..size)
            .map(|_| {
                let prog = next_prog(&mut rng);
                let budget = budgets[prog]
                    .pop()
                    .expect("cold pool within the budget range");
                (prog, budget)
            })
            .collect();
        Pools { edits, colds }
    }
}

/// The request list of one ladder step: `rate × secs` arrivals placed
/// uniformly at random over the step (a Poisson process conditioned on
/// its count), with class counts fixed by `MIX` and programs spread
/// evenly over each class, so seeds differ in order and timing but not
/// in how much of each kind of work a step holds. A pure function of
/// its arguments.
pub fn schedule(
    suite: &[Benchmark],
    pools: &Pools,
    seed: u64,
    step: u64,
    n: usize,
    secs: f64,
) -> Vec<Req> {
    let mut rng = Rng::new(seed, 100 + step);
    let mut times: Vec<u64> = (0..n).map(|_| (rng.unit() * secs * 1e6) as u64).collect();
    times.sort_unstable();
    let mut classes: Vec<Class> = Class::ALL
        .into_iter()
        .zip(MIX)
        .flat_map(|(c, w)| std::iter::repeat_n(c, (n as u64 * w).div_ceil(100) as usize))
        .collect();
    rng.shuffle(&mut classes);
    classes.truncate(n);
    // Evenly spread programs: each class walks its own shuffled deck.
    let mut decks: Vec<Vec<usize>> = Vec::new();
    let mut draw = |rng: &mut Rng, class: usize, len: usize| -> usize {
        if decks.len() <= class {
            decks.resize(class + 1, Vec::new());
        }
        if decks[class].is_empty() {
            decks[class] = (0..len).collect();
            rng.shuffle(&mut decks[class]);
        }
        decks[class].pop().expect("refilled above")
    };
    let pgo_idx: Vec<usize> = PGO_PROGRAMS
        .iter()
        .map(|n| {
            suite
                .iter()
                .position(|b| b.name == *n)
                .expect("pgo program is in the suite")
        })
        .collect();
    let mut edits: Vec<usize> = (0..pools.edits.len()).collect();
    let mut colds: Vec<usize> = (0..pools.colds.len()).collect();
    rng.shuffle(&mut edits);
    rng.shuffle(&mut colds);
    let mut last_profile = [0usize; PGO_PROGRAMS.len()];
    let mut reqs = Vec::with_capacity(n);
    for (at_us, class) in times.into_iter().zip(classes) {
        let (prog, kind) = match class {
            Class::Hit => (draw(&mut rng, 0, suite.len()), Kind::Hot),
            Class::Edit => {
                let e = edits.pop().expect("edit pool sized for the step");
                (pools.edits[e].0, Kind::Edit(e))
            }
            Class::Cold => {
                let c = colds.pop().expect("cold pool sized for the step");
                (pools.colds[c].0, Kind::Cold(c))
            }
            Class::Pgo => {
                let slot = draw(&mut rng, 3, PGO_PROGRAMS.len());
                // Assumed: one push in four switches profiles, so most
                // pushes repeat the profile the cached build used (the
                // stable hit) and about a quarter change it (a rebuild
                // for the programs whose switch crosses the threshold).
                if rng.below(4) == 0 {
                    last_profile[slot] ^= 1;
                }
                (
                    pgo_idx[slot],
                    Kind::Pgo {
                        slot,
                        profile: last_profile[slot],
                    },
                )
            }
        };
        reqs.push(Req {
            class,
            at_us,
            prog,
            kind,
        });
    }
    reqs
}

/// A hash of a request list's full content.
pub fn schedule_hash(pools: &Pools, reqs: &[Req]) -> u64 {
    let mut text = String::new();
    for r in reqs {
        let kind = match &r.kind {
            Kind::Hot => "hot".to_string(),
            Kind::Edit(e) => format!("edit {:?}", pools.edits[*e]),
            Kind::Cold(c) => format!("cold {:?}", pools.colds[*c]),
            Kind::Pgo { slot, profile } => format!("pgo {slot} {profile}"),
        };
        text.push_str(&format!(
            "{} {} {} {kind}\n",
            r.class.name(),
            r.at_us,
            r.prog
        ));
    }
    fnv(text.as_bytes())
}

/// The in-process reference build of a request's inputs.
fn optimize_program(
    mods: &[(String, String)],
    opts: &HloOptions,
    profile: Option<&ProfileDb>,
) -> hlo_ir::Program {
    let refs: Vec<(&str, &str)> = mods.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let mut p = hlo_frontc::compile(&refs).expect("benchmark inputs compile");
    hlo::optimize(&mut p, profile, opts);
    p
}

fn optimize_text(
    mods: &[(String, String)],
    opts: &HloOptions,
    profile: Option<&ProfileDb>,
) -> String {
    hlo_ir::program_to_text(&optimize_program(mods, opts, profile))
}

/// The default options at another budget.
fn cold_options(budget: u64) -> HloOptions {
    HloOptions {
        budget_percent: budget,
        ..Default::default()
    }
}

/// Inputs shared by every step: the hot set, the pgo profiles and the
/// expected replies for them.
struct Fixed {
    suite: Vec<Benchmark>,
    pools: Pools,
    edit_ir: Vec<Arc<String>>,
    cold_ir: Vec<Arc<String>>,
    hot_ir: Vec<Arc<String>>,
    hot_ops: u64,
    pgo_keys: Vec<String>,
    /// Per pgo program: the two profile texts pushed.
    pgo_profiles: Vec<[String; 2]>,
    /// Expected reply per (pgo program, aggregate text hash).
    pgo_ir: HashMap<(usize, u64), Arc<String>>,
}

/// The two profiles pushed for a pgo program: training runs on
/// `train_arg` and on `3 × train_arg + 1`. For some programs their
/// shapes differ by more than the daemon's drift threshold, so a push
/// that switches profiles makes the cached server-mode build stale.
fn training_profiles(p: &hlo_ir::Program, b: &Benchmark) -> [ProfileDb; 2] {
    let bytecode = ExecOptions {
        tier: Tier::Bytecode,
        ..Default::default()
    };
    [b.train_arg, b.train_arg * 3 + 1].map(|a| {
        hlo_profile::collect_profile(p, &[a], &bytecode)
            .expect("profile run")
            .0
    })
}

/// Canonical text of the aggregate a pgo program holds after a sequence
/// of epoch-starting pushes (mirrors the daemon's store).
fn aggregate_after(key: &str, pushes: &[&ProfileDb]) -> String {
    let mut store = hlo_pgo::ProfileStore::new(0);
    store.register(key).expect("well-formed key");
    for d in pushes {
        store.advance(key, 64).expect("registered");
        store.push(key, d).expect("registered");
    }
    store.merged(key).map(|db| db.to_text()).unwrap_or_default()
}

impl Fixed {
    fn new(pool_size: usize) -> Fixed {
        let suite = hlo_suite::all_benchmarks();
        let opts = HloOptions::default();
        let pools = Pools::new(&suite, pool_size);
        // Reference outputs for the pools, on two threads.
        let (edit_ir, cold_ir) = std::thread::scope(|scope| {
            let edits = scope.spawn(|| {
                let ir: Vec<Arc<String>> = pools
                    .edits
                    .iter()
                    .map(|(_, mods)| Arc::new(optimize_text(mods, &opts, None)))
                    .collect();
                ir
            });
            let colds: Vec<Arc<String>> = pools
                .colds
                .iter()
                .map(|&(prog, budget)| {
                    Arc::new(optimize_text(
                        &sources(&suite[prog]),
                        &cold_options(budget),
                        None,
                    ))
                })
                .collect();
            (edits.join().expect("reference thread panicked"), colds)
        });
        let hot: Vec<hlo_ir::Program> = suite
            .iter()
            .map(|b| optimize_program(&sources(b), &opts, None))
            .collect();
        let hot_ops = hot.iter().map(hlo_ir::Program::total_size).sum();
        let mut pgo_keys = Vec::new();
        let mut pgo_profiles = Vec::new();
        let mut pgo_ir = HashMap::new();
        for (slot, name) in PGO_PROGRAMS.iter().enumerate() {
            let b = suite
                .iter()
                .find(|b| b.name == *name)
                .expect("pgo program is in the suite");
            let p = b.compile().expect("suite compiles");
            let key = hlo_pgo::program_key(&p);
            let [a, bb] = &training_profiles(&p, b);
            for seq in [
                vec![a],
                vec![bb],
                vec![a, bb],
                vec![bb, a],
                vec![a, bb, a],
                vec![bb, a, bb],
            ] {
                let text = aggregate_after(&key, &seq);
                let h = fnv(text.as_bytes());
                pgo_ir.entry((slot, h)).or_insert_with(|| {
                    let db = ProfileDb::from_text(&text).expect("aggregate text parses");
                    Arc::new(optimize_text(&sources(b), &opts, Some(&db)))
                });
            }
            pgo_keys.push(key);
            pgo_profiles.push([a.to_text(), bb.to_text()]);
        }
        Fixed {
            suite,
            pools,
            edit_ir,
            cold_ir,
            hot_ir: hot
                .iter()
                .map(|p| Arc::new(hlo_ir::program_to_text(p)))
                .collect(),
            hot_ops,
            pgo_keys,
            pgo_profiles,
            pgo_ir,
        }
    }
}

/// The wire request for a scheduled request, and its expected reply
/// (`None` for pgo, whose reply depends on the daemon's cache state).
fn prepare(fx: &Fixed, r: &Req) -> (OptimizeRequest, Option<Arc<String>>) {
    let b = &fx.suite[r.prog];
    match &r.kind {
        Kind::Hot => (
            OptimizeRequest::from_minc(sources(b)),
            Some(fx.hot_ir[r.prog].clone()),
        ),
        Kind::Edit(e) => (
            OptimizeRequest::from_minc(fx.pools.edits[*e].1.clone()),
            Some(fx.edit_ir[*e].clone()),
        ),
        Kind::Cold(c) => {
            let mut req = OptimizeRequest::from_minc(sources(b));
            req.options = cold_options(fx.pools.colds[*c].1);
            (req, Some(fx.cold_ir[*c].clone()))
        }
        Kind::Pgo { .. } => {
            let mut req = OptimizeRequest::from_minc(sources(b));
            req.profile = ProfileSpec::Server;
            (req, None)
        }
    }
}

/// The client-side view of one pgo program: a mirror of its aggregate
/// and the aggregate its cached server-mode entry was built with. Held
/// across push + build, so pushes and builds of one program never
/// interleave between the two senders.
struct PgoState {
    mirror: hlo_pgo::ProfileStore,
    built_with: Option<u64>,
}

/// One request's measurements.
#[derive(Debug, Clone)]
struct Rec {
    class: Class,
    due_us: u64,
    done_us: u64,
    /// Sender wake-up lateness, for requests the sender waited for.
    late_us: Option<u64>,
    /// Send to reply (the pgo class includes its push).
    rtt_us: u64,
    /// Process CPU time from send to reply (the pgo class includes its
    /// push). Only the closed loop, with one request in flight, charges
    /// it to one request.
    cpu_us: u64,
    ok: bool,
    req_bytes: u64,
    resp_bytes: u64,
    push_us: Option<u64>,
    /// Daemon-reported wall and phases (traced steps only).
    daemon: Option<(u64, Vec<(String, u64)>)>,
}

impl Rec {
    fn latency_ms(&self) -> f64 {
        self.done_us.saturating_sub(self.due_us) as f64 / 1e3
    }
}

/// Spawns a daemon and warms its hot set (each warm-up request also asks
/// for a training run, whose result is checked). Returns the daemon, the
/// set-up's process CPU time and the Σ retired instructions of the
/// training runs.
fn setup(fx: &Fixed, report: &mut Report) -> Option<(Server, f64, u64)> {
    let cpu = probe::process_cpu();
    let server = match Server::spawn("127.0.0.1:0", ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("daemon spawn failed: {e}"));
            return None;
        }
    };
    let mut retired = 0;
    let mut client = match Client::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            report.check(false, || format!("connect failed: {e}"));
            stop(server);
            return None;
        }
    };
    for (i, b) in fx.suite.iter().enumerate() {
        let mut req = OptimizeRequest::from_minc(sources(b));
        req.train_arg = Some(b.train_arg);
        let reply = client.optimize(&req);
        let want = refs::suite(b.name, Arg::Train);
        let ok = match &reply {
            Ok(r) => {
                let train = parse_train(r.train.as_deref().unwrap_or(""));
                retired += train.map_or(0, |t| t.1);
                r.ir_text == *fx.hot_ir[i]
                    && train.is_some_and(|(ret, _, outputs, checksum)| {
                        ret == want.ret && outputs == want.output.len() && checksum == want.checksum
                    })
            }
            Err(_) => false,
        };
        report.check(ok, || {
            format!("{}: warm-up reply or training run differs", b.name)
        });
    }
    let cpu = probe::process_cpu().saturating_sub(cpu);
    Some((server, cpu.as_secs_f64(), retired))
}

/// Drains and stops a step's daemon, waiting for all its threads.
fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

/// Parses the daemon's `train` line: `ret R retired N output K checksum 0xC`.
fn parse_train(line: &str) -> Option<(i64, u64, usize, u64)> {
    let w: Vec<&str> = line.split_whitespace().collect();
    match w.as_slice() {
        ["ret", ret, "retired", n, "output", k, "checksum", c] => Some((
            ret.parse().ok()?,
            n.parse().ok()?,
            k.parse().ok()?,
            u64::from_str_radix(c.trim_start_matches("0x"), 16).ok()?,
        )),
        _ => None,
    }
}

fn trace_id(seed: u64, step: u64, i: usize) -> String {
    format!(
        "{:016x}",
        fnv(format!("perfbench {seed} {step} {i}").as_bytes())
    )
}

fn response_bytes(r: &OptimizeResponse) -> u64 {
    r.to_sections().encode().len() as u64
}

/// What sending one request gave back.
struct Sent {
    ok: bool,
    req_bytes: u64,
    push_us: Option<u64>,
    /// Process CPU time of the daemon calls (push and optimize).
    cpu_us: u64,
    resp: OptimizeResponse,
}

/// Sends one request (and its push, for pgo) and checks the reply.
fn send(
    client: &mut Client,
    fx: &Fixed,
    r: &Req,
    req: &OptimizeRequest,
    expected: &Option<Arc<String>>,
    pgo: &[Mutex<PgoState>],
) -> Result<Sent, ServeError> {
    let req_bytes = req.to_sections().encode().len() as u64;
    let micros = |d: Duration| d.as_micros() as u64;
    let Kind::Pgo { slot, profile } = r.kind else {
        let (resp, cpu) = probe::cpu_timed(|| client.optimize(req));
        let resp = resp?;
        return Ok(Sent {
            ok: expected.as_ref().is_some_and(|e| resp.ir_text == **e),
            req_bytes,
            push_us: None,
            cpu_us: micros(cpu),
            resp,
        });
    };
    let mut st = pgo[slot]
        .lock()
        .expect("a sender panicked holding a pgo lock");
    let delta = &fx.pgo_profiles[slot][profile];
    let push = ProfilePushRequest {
        program: fx.pgo_keys[slot].clone(),
        delta: delta.clone(),
        advance: 64,
    };
    let t = Instant::now();
    let (pushed, push_cpu) = probe::cpu_timed(|| client.profile_push(&push));
    pushed?;
    let push_us = micros(t.elapsed());
    let key = &fx.pgo_keys[slot];
    st.mirror.advance(key, 64).expect("registered");
    st.mirror
        .push(
            key,
            &ProfileDb::from_text(delta).expect("profile text parses"),
        )
        .expect("registered");
    let current = fnv(st
        .mirror
        .merged(key)
        .map(|db| db.to_text())
        .unwrap_or_default()
        .as_bytes());
    let (resp, cpu) = probe::cpu_timed(|| client.optimize(req));
    let resp = resp?;
    let built = if resp.outcome.hit {
        st.built_with
    } else {
        Some(current)
    };
    st.built_with = built;
    Ok(Sent {
        ok: built
            .and_then(|h| fx.pgo_ir.get(&(slot, h)))
            .is_some_and(|e| resp.ir_text == **e),
        req_bytes: req_bytes + push.to_sections().encode().len() as u64,
        push_us: Some(push_us),
        cpu_us: micros(push_cpu + cpu),
        resp,
    })
}

/// One step of a run: `n` requests at an offered `rate` (requests per
/// second) from `SENDERS` senders, or, with an infinite rate, a closed
/// loop on one connection that stops sending after `stop_after`.
#[derive(Debug, Clone, Copy)]
struct Plan {
    rate: f64,
    n: usize,
    traced: bool,
    stop_after: Option<Duration>,
}

impl Plan {
    fn at(rate: f64, secs: f64, traced: bool) -> Plan {
        Plan {
            rate,
            n: (rate * secs).round() as usize,
            traced,
            stop_after: None,
        }
    }

    fn closed(n: usize, secs: f64) -> Plan {
        Plan {
            rate: f64::INFINITY,
            n,
            traced: false,
            stop_after: Some(Duration::from_secs_f64(secs)),
        }
    }

    fn is_closed(&self) -> bool {
        !self.rate.is_finite()
    }

    fn senders(&self) -> usize {
        if self.is_closed() {
            1
        } else {
            SENDERS
        }
    }

    fn secs(&self) -> f64 {
        if self.rate.is_finite() {
            self.n as f64 / self.rate
        } else {
            0.0
        }
    }
}

/// What one step measured.
struct StepOut {
    rate: f64,
    recs: Vec<Rec>,
    /// Reference-workload rounds timed during the step, ms.
    speed: Vec<f64>,
    setup_s: f64,
    warm_retired: u64,
    before: ServeStats,
    after: ServeStats,
    hash: u64,
}

impl StepOut {
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.of_class(class, Rec::latency_ms)
    }

    /// Per-request process CPU time, ms (meaningful for the closed loop).
    fn cpu_ms(&self, class: Option<Class>) -> Vec<f64> {
        self.of_class(class, |r| r.cpu_us as f64 / 1e3)
    }

    fn of_class(&self, class: Option<Class>, f: fn(&Rec) -> f64) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(f)
            .collect()
    }

    /// The step meets the limit: tail within `LIMIT_MS`, the backlog
    /// not growing (the last quarter's requests did not wait longer to
    /// be sent, on average, than half the limit), and the senders on
    /// time.
    fn meets_limit(&self) -> bool {
        let (tail, _) = stats::tail(&self.latencies(None), TAIL_P);
        let n = self.recs.len();
        let mut by_due: Vec<&Rec> = self.recs.iter().collect();
        by_due.sort_by_key(|r| r.due_us);
        let last = &by_due[n - n / 4..];
        let lag: f64 = last
            .iter()
            .map(|r| (r.done_us.saturating_sub(r.due_us).saturating_sub(r.rtt_us)) as f64 / 1e3)
            .sum::<f64>()
            / last.len().max(1) as f64;
        tail <= LIMIT_MS && lag <= LIMIT_MS / 2.0 && sender_lateness(&self.recs).0 <= LATE_P99_MS
    }
}

fn run_step(fx: &Fixed, ctx: &Ctx, step: u64, plan: Plan, report: &mut Report) -> Option<StepOut> {
    let (traced, rate) = (plan.traced, plan.rate);
    let reqs = schedule(&fx.suite, &fx.pools, ctx.seed, step, plan.n, plan.secs());
    let hash = schedule_hash(&fx.pools, &reqs);
    let again = schedule(&fx.suite, &fx.pools, ctx.seed, step, plan.n, plan.secs());
    report.check(hash == schedule_hash(&fx.pools, &again), || {
        "request list is not a pure function of the seed".to_string()
    });
    let pgo: Vec<Mutex<PgoState>> = fx
        .pgo_keys
        .iter()
        .map(|k| {
            let mut mirror = hlo_pgo::ProfileStore::new(0);
            mirror.register(k).expect("well-formed key");
            Mutex::new(PgoState {
                mirror,
                built_with: None,
            })
        })
        .collect();

    let (daemon, setup_s, warm_retired) = setup(fx, report)?;
    let addr = daemon.local_addr();
    let stats_of = |report: &mut Report| -> ServeStats {
        let s = Client::connect(addr).and_then(|mut c| c.stats());
        report.check(s.is_ok(), || format!("stats request failed: {s:?}"));
        s.unwrap_or_default()
    };
    let before = stats_of(report);

    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let senders: Vec<(Vec<Rec>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.senders())
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).ok();
                    let mut recs = Vec::new();
                    let mut speed = Vec::new();
                    loop {
                        if plan.stop_after.is_some_and(|d| start.elapsed() >= d) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = reqs.get(i) else { break };
                        if plan.is_closed() && i.is_multiple_of(SPEED_EVERY) {
                            speed.push(probe::reference_work());
                        }
                        // Built here rather than up front, so a step's
                        // requests never all sit in memory at once.
                        let (mut req, expected) = prepare(fx, r);
                        if traced {
                            req.trace_id = Some(trace_id(ctx.seed, step, i));
                        }
                        let due = start + Duration::from_micros(r.at_us);
                        let now = Instant::now();
                        let late_us = (now < due).then(|| {
                            std::thread::sleep(due - now);
                            Instant::now().duration_since(due).as_micros() as u64
                        });
                        let sent = Instant::now();
                        let result = match client.as_mut() {
                            Some(c) => send(c, fx, r, &req, &expected, &pgo),
                            None => Err(ServeError::Protocol("not connected".to_string())),
                        };
                        let done = Instant::now();
                        let mut rec = Rec {
                            class: r.class,
                            // A closed loop times each request from its send.
                            due_us: if plan.is_closed() {
                                sent.duration_since(start).as_micros() as u64
                            } else {
                                r.at_us
                            },
                            done_us: done.duration_since(start).as_micros() as u64,
                            late_us,
                            rtt_us: done.duration_since(sent).as_micros() as u64,
                            cpu_us: 0,
                            ok: false,
                            req_bytes: 0,
                            resp_bytes: 0,
                            push_us: None,
                            daemon: None,
                        };
                        match result {
                            Ok(sent) => {
                                rec.ok = sent.ok;
                                rec.req_bytes = sent.req_bytes;
                                rec.resp_bytes = response_bytes(&sent.resp);
                                rec.push_us = sent.push_us;
                                rec.cpu_us = sent.cpu_us;
                                if let (Some(id), Some(c)) = (&req.trace_id, client.as_mut()) {
                                    rec.daemon =
                                        c.trace_fetch(id).ok().map(|t| (t.wall_us, t.phases));
                                }
                            }
                            Err(ServeError::Busy) => {}
                            Err(_) => client = Client::connect(addr).ok(),
                        }
                        recs.push(rec);
                    }
                    (recs, speed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let after = stats_of(report);
    stop(daemon);

    let (recs, speed): (Vec<Vec<Rec>>, Vec<Vec<f64>>) = senders.into_iter().unzip();
    let mut recs: Vec<Rec> = recs.into_iter().flatten().collect();
    recs.sort_by_key(|r| r.due_us);
    for r in &recs {
        report.check(r.ok, || {
            format!(
                "step {step}: {} request due at {} µs: wrong or failed reply",
                r.class.name(),
                r.due_us
            )
        });
    }
    if traced {
        let missing = recs.iter().filter(|r| r.ok && r.daemon.is_none()).count();
        report.check(missing == 0, || {
            format!("{missing} traced requests had no daemon trace")
        });
    }
    Some(StepOut {
        rate,
        recs,
        speed: speed.concat(),
        setup_s,
        warm_retired,
        before,
        after,
        hash,
    })
}

/// Highest sustainable rate on the ladder: the highest rung that meets
/// the limit, interpolated towards the rung above it by how much of the
/// tail headroom to the limit was left. Below the bottom rung, the
/// bottom rate scaled by limit over tail.
fn sustainable_rate(steps: &[&StepOut]) -> f64 {
    let tail = |s: &StepOut| stats::tail(&s.latencies(None), TAIL_P).0;
    let mut rungs: Vec<&StepOut> = steps.to_vec();
    rungs.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let Some(best) = rungs.iter().rposition(|s| s.meets_limit()) else {
        return rungs
            .first()
            .map_or(0.0, |s| s.rate * (LIMIT_MS / tail(s)).min(1.0));
    };
    let Some(above) = rungs.get(best + 1) else {
        return rungs[best].rate;
    };
    let (t0, t1) = (tail(rungs[best]), tail(above));
    let frac = if t1 > t0 {
        ((LIMIT_MS - t0) / (t1 - t0)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    rungs[best].rate + (above.rate - rungs[best].rate) * frac
}

/// Lateness of the sender itself (p99, max), ms.
fn sender_lateness(recs: &[Rec]) -> (f64, f64) {
    let late: Vec<f64> = recs
        .iter()
        .filter_map(|r| r.late_us)
        .map(|u| u as f64 / 1e3)
        .collect();
    (
        stats::quantile(&late, 0.99),
        late.iter().copied().fold(0.0, f64::max),
    )
}

/// The steps of a run of `seconds`: the closed loop, then the ladder,
/// then the reference step. The closed loop runs first so that the
/// process's peak memory after it is that of one daemon, not of the
/// daemons before it. A traced run measures the reference step twice,
/// untraced then traced, and nothing else.
fn step_plan(seconds: f64, traced: bool) -> Vec<Plan> {
    let reference = Plan::at(REF_RATE, seconds * REF_SHARE, false);
    if traced {
        return vec![
            reference,
            Plan {
                traced: true,
                ..reference
            },
        ];
    }
    let closed = Plan::closed(
        (seconds * CLOSED_MAX_PER_SEC).round() as usize,
        seconds * CLOSED_SHARE,
    );
    std::iter::once(closed)
        .chain(
            LADDER
                .iter()
                .map(|&r| Plan::at(r, seconds * RUNG_SHARE, false)),
        )
        .chain([reference])
        .collect()
}

/// Edit and cold inputs the largest step of `plan` takes.
fn pool_size(plan: &[Plan]) -> usize {
    let largest = plan.iter().map(|p| p.n as u64).max().unwrap_or(0);
    (largest * MIX[1].max(MIX[2])).div_ceil(100) as usize
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let plan = step_plan(ctx.seconds, ctx.traced);
    let fx = Fixed::new(pool_size(&plan));
    let mut probe = Probe::new(ctx.traced);
    let mut speed = Speed::default();
    let mut steps = Vec::new();
    // The process's peak memory once the closed loop, which runs first on
    // the first daemon, has ended: the inputs plus one daemon through the
    // mix. The daemons after it each leave some memory resident after
    // shutdown, so the end-of-run peak (printed too) also counts them.
    let mut closed_peak_kib = 0;
    for (k, p) in plan.iter().enumerate() {
        speed.sample();
        let mem = p.traced.then(|| probe.mem_window());
        let Some(out) = run_step(&fx, ctx, k as u64, *p, &mut report) else {
            return report;
        };
        if let Some(mem) = mem {
            probe.note_peak("serve", mem.close() as f64 / 1024.0);
        }
        if p.is_closed() {
            closed_peak_kib = probe::rss_kib().1;
        }
        speed.extend(&out.speed);
        steps.push(out);
    }
    let last = steps.last().expect("at least one step");
    let all_recs: Vec<Rec> = steps.iter().flat_map(|s| s.recs.iter().cloned()).collect();
    let (late_p99, late_max) = sender_lateness(&last.recs);
    println!(
        "daemon-mix: {} steps, {} requests; reference step {} req at {} rps (schedule hash {:016x})",
        steps.len(),
        all_recs.len(),
        last.recs.len(),
        last.rate,
        last.hash
    );
    for s in &steps {
        let lat = s.latencies(None);
        let what = if s.rate.is_finite() {
            format!("{:>6.1} rps", s.rate)
        } else {
            "closed loop".to_string()
        };
        println!(
            "  {what}: {:>4} req, p50 {:>8.3} ms, p{TAIL_P} {:>8.3} ms, setup {:.3} CPU s{}",
            s.recs.len(),
            median(&lat),
            stats::tail(&lat, TAIL_P).0,
            s.setup_s,
            match (s.rate.is_finite(), s.meets_limit()) {
                (false, _) => "",
                (true, true) => ", meets limit",
                (true, false) => ", misses limit",
            }
        );
    }
    println!(
        "  sender lateness on the reference step: p99 {late_p99:.3} ms, max {late_max:.3} ms \
         (all open-loop steps: p99 {:.3} ms)",
        sender_lateness(&all_recs).0,
    );
    // What the reference step's writes did in the daemon, so a run shows
    // that the splice and drift paths were taken.
    let (b, a) = (&last.before, &last.after);
    let d = |f: fn(&ServeStats) -> u64| f(a).saturating_sub(f(b)) as f64;
    println!(
        "  reference step paths: {} partitions spliced, {} rebuilt; {} pgo re-optimizations \
         ({} stale hits); {} evictions",
        d(|s| s.partition_hits),
        d(|s| s.partition_rebuilds),
        d(|s| s.reoptimizations),
        d(|s| s.stale_hits),
        d(|s| s.evictions)
    );
    let late = late_p99 > LATE_P99_MS;
    if late {
        println!(
            "  INVALID: the load generator fell behind on the reference step (p99 lateness \
             {late_p99:.3} ms > {LATE_P99_MS} ms), so the wall-clock latencies below measure \
             the generator as much as the daemon"
        );
    }

    let lat = last.latencies(None);
    let (tail, enough) = stats::tail(&lat, TAIL_P);
    let setups: Vec<f64> = steps.iter().map(|s| s.setup_s).collect();
    let m = &mut report.metrics;
    if !ctx.traced {
        let closed = &steps[0];
        let scale = speed.scale();
        let cpu: Vec<f64> = closed.cpu_ms(None).iter().map(|c| c * scale).collect();
        let (cpu_tail, cpu_enough) = stats::tail(&cpu, TAIL_P);
        let e2e = [
            ("setup_s", median(&setups) * scale, "s"),
            ("peak_rss_mb", closed_peak_kib as f64 / 1024.0, "MB"),
            ("cpu_p50_ms", median(&cpu), "ms"),
            ("cpu_tail_ms", cpu_tail, "ms"),
            (
                "ops_per_cpu_s",
                cpu.len() as f64 * 1e3 / cpu.iter().sum::<f64>(),
                "1/s",
            ),
            ("code_ops", fx.hot_ops as f64, "count"),
            ("code_retired", closed.warm_retired as f64, "count"),
        ];
        for (name, v, unit) in e2e {
            m.put(name, v);
            show(name, v, unit);
        }
        speed.show();
        crate::show_unscaled(
            median(&setups),
            median(&cpu) / scale,
            cpu_tail / scale,
            e2e[4].1 * scale,
        );
        crate::note_tail(
            "cpu_tail_ms",
            TAIL_P,
            cpu_enough,
            cpu.len(),
            "closed-loop requests",
        );
        println!(
            "  (peak_rss_mb: process peak after the closed loop; at the end of the run {:.3} MB)",
            probe::peak_rss_mb()
        );
        for c in Class::ALL {
            show(
                &format!("{}_cpu_p50_ms", c.name()),
                median(&closed.cpu_ms(Some(c))) * scale,
                "ms",
            );
        }
        let mark = if late { " (INVALID)" } else { "" };
        println!("  open loop at {REF_RATE} rps, wall clock from each request's due time{mark}:");
        show("lat_p50_ms", median(&lat), "ms");
        show("lat_tail_ms", tail, "ms");
        crate::note_tail("lat_tail_ms", TAIL_P, enough, lat.len(), "requests");
        for c in [Class::Hit, Class::Edit, Class::Cold] {
            show(
                &format!("{}_p50_ms", c.name()),
                median(&last.latencies(Some(c))),
                "ms",
            );
        }
        let rungs: Vec<&StepOut> = steps.iter().filter(|s| s.rate.is_finite()).collect();
        println!("  (slo_rps: latency limit {LIMIT_MS} ms on the p{TAIL_P} latency)");
        show("slo_rps", sustainable_rate(&rungs), "1/s");
        return report;
    }

    // Traced run: per-layer metrics from the traced reference step.
    let untraced_p50 = median(&steps[0].latencies(None));
    m.put("trace.overhead_ms", median(&lat) - untraced_p50);
    for c in Class::ALL {
        let of = |f: &dyn Fn(&Rec) -> Option<f64>| -> f64 {
            median(
                &last
                    .recs
                    .iter()
                    .filter(|r| r.class == c)
                    .filter_map(f)
                    .collect::<Vec<_>>(),
            )
        };
        m.put(
            &format!("serve.rtt_ms.{}", c.name()),
            of(&|r| Some(r.rtt_us as f64 / 1e3)),
        );
        m.put(
            &format!("serve.unattributed_ms.{}", c.name()),
            of(&|r| {
                r.daemon
                    .as_ref()
                    .map(|(wall, _)| (r.rtt_us as f64 - *wall as f64) / 1e3)
            }),
        );
    }
    for r in &last.recs {
        let children: Vec<(String, Duration)> = r
            .daemon
            .iter()
            .flat_map(|(_, ph)| {
                ph.iter()
                    .map(|(n, us)| (format!("daemon.{n}"), Duration::from_micros(*us)))
            })
            .collect();
        probe.record(
            &format!("serve.{}", r.class.name()),
            Duration::from_micros(r.rtt_us),
            &children,
        );
    }
    for (phase, p50, _, _) in &a.quantiles {
        m.put(&format!("serve.{phase}_p50_us"), *p50 as f64);
    }
    let ratio = |x: f64, y: f64| if x + y > 0.0 { x / (x + y) } else { 0.0 };
    let n = last.recs.len().max(1) as f64;
    m.put("serve.hit_ratio", ratio(d(|s| s.hits), d(|s| s.misses)));
    m.put("serve.busy_refused", d(|s| s.busy));
    m.put(
        "serve.req_bytes",
        last.recs.iter().map(|r| r.req_bytes as f64).sum::<f64>() / n,
    );
    m.put(
        "serve.resp_bytes",
        last.recs.iter().map(|r| r.resp_bytes as f64).sum::<f64>() / n,
    );
    m.put("incr.partition_hits", d(|s| s.partition_hits));
    m.put("incr.partition_rebuilds", d(|s| s.partition_rebuilds));
    m.put(
        "incr.reuse_ratio",
        ratio(d(|s| s.partition_hits), d(|s| s.partition_rebuilds)),
    );
    m.put("incr.fallbacks", d(|s| s.incr_fallbacks));
    m.put("cache.evictions", d(|s| s.evictions));
    m.put("cache.resident_bytes", a.cache_bytes as f64);
    let pushes: Vec<f64> = last
        .recs
        .iter()
        .filter_map(|r| r.push_us)
        .map(|u| u as f64 / 1e3)
        .collect();
    m.put("pgo.push_ms", median(&pushes));
    m.put("pgo.reoptimizations", d(|s| s.reoptimizations));
    m.put("pgo.stale_hits", d(|s| s.stale_hits));
    m.put("gen.late_p99_ms", late_p99);
    m.put("gen.late_max_ms", late_max);
    println!(
        "  tracing overhead on lat_p50_ms: {:.3} ms",
        median(&lat) - untraced_p50
    );
    probe.export("daemon-mix", 1.0, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_list_is_a_pure_function_of_the_seed() {
        let suite = hlo_suite::all_benchmarks();
        let hash = |seed| {
            let pools = Pools::new(&suite, 20);
            schedule_hash(&pools, &schedule(&suite, &pools, seed, 1, 100, 2.0))
        };
        assert_eq!(hash(7), hash(7));
        assert_ne!(hash(7), hash(8));
    }

    #[test]
    fn every_class_appears_and_edits_change_one_literal() {
        let suite = hlo_suite::all_benchmarks();
        let pools = Pools::new(&suite, 50);
        let reqs = schedule(&suite, &pools, 3, 0, 300, 3.0);
        for c in Class::ALL {
            assert!(reqs.iter().any(|r| r.class == c), "{c:?} missing");
        }
        for r in &reqs {
            if let Kind::Edit(e) = r.kind {
                let mods = &pools.edits[e].1;
                let orig = sources(&suite[r.prog]);
                let changed = mods.iter().zip(&orig).filter(|(a, b)| a != b).count();
                assert_eq!(changed, 1);
            }
        }
    }

    #[test]
    fn pools_serve_the_longest_run() {
        let suite = hlo_suite::all_benchmarks();
        for traced in [false, true] {
            let size = pool_size(&step_plan(crate::MAX_SECONDS, traced));
            let pools = Pools::new(&suite, size);
            assert_eq!(pools.colds.len(), size);
            assert_eq!(pools.edits.len(), size);
        }
    }

    #[test]
    fn half_the_pgo_programs_drift_past_the_default_threshold() {
        let suite = hlo_suite::all_benchmarks();
        let cfg = ServeConfig::default();
        for (name, drifts) in PGO_PROGRAMS.iter().zip([true, true, false, false]) {
            let b = suite.iter().find(|b| b.name == *name).unwrap();
            let [a, other] = training_profiles(&b.compile().unwrap(), b);
            let exceeds = |x: &ProfileDb, y: &ProfileDb| {
                hlo_pgo::drift(x, y, cfg.pgo_hot_set).exceeds(cfg.pgo_threshold_millis)
            };
            assert_eq!(exceeds(&a, &other), drifts, "{name}");
            assert_eq!(exceeds(&other, &a), drifts, "{name}");
            assert!(!exceeds(&a, &a), "{name}");
        }
    }

    #[test]
    fn train_line_parses() {
        assert_eq!(
            parse_train("ret 5 retired 100 output 2 checksum 0xff"),
            Some((5, 100, 2, 255))
        );
        assert_eq!(parse_train("trap: abort"), None);
    }
}
