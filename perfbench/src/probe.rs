//! Benchmark-side tracing: a span around each call into a layer, plus
//! per-layer peak memory. Spans go into an `hlo_trace::Tracer` (the
//! repository's own span model), so `hlo::optimize_traced` can nest its
//! stage spans under the benchmark's `hlo.optimize` span, and the whole
//! run exports as Chrome JSON through `hlo_trace::chrome_trace_json`.

use hlo_trace::{TraceLevel, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Current and peak resident set size of this process, in KiB.
pub fn rss_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rss_kib().1 as f64 / 1024.0
}

/// CPU time this process has used so far, all threads together
/// (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The bounded timings are CPU time rather than wall time. On a virtual
/// machine whose host takes back part of the vCPUs' time (steal time),
/// wall time counts the stolen slices and CPU time does not: on the
/// 2-vCPU reference VM, with the host stealing 14% of the time, the wall
/// time of one fixed loop timed 100 times spread by 39% (IQR over median)
/// and its CPU time by 12%. See [`Speed`] for what CPU time still
/// counts.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two C longs
    // on Linux) through the pointer, which points at one.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Runs `f` and returns its result with the process CPU time it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = process_cpu();
    let out = f();
    (out, process_cpu().saturating_sub(t))
}

/// Process CPU time of one round of a fixed reference workload, in ms:
/// a small interpreter loop, string-keyed map inserts and lookups, and a
/// sort — the kinds of work the VM, the optimizer and the daemon do, in
/// this benchmark's own code, which no change to the repository touches.
pub fn reference_work() -> f64 {
    use std::collections::HashMap;
    use std::hint::black_box;
    let ((), d) = cpu_timed(|| {
        // Interpreter: a dispatch loop over a fixed 8-op program.
        let code: [u8; 8] = black_box([0, 1, 2, 3, 4, 5, 3, 6]);
        let mut r = [1u64, 3, 5, 7];
        let (mut pc, mut n) = (0usize, 60_000u32);
        loop {
            match code[pc] {
                0 => r[0] = r[0].wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1),
                1 => r[1] ^= r[0] >> 17,
                2 => r[2] = r[2].wrapping_add(r[1] & 0xff),
                3 => {
                    if r[0] & 4 == 0 {
                        r[3] += 1;
                    } else {
                        r[3] ^= r[2];
                    }
                }
                4 => r.swap(1, 2),
                5 => r[2] = r[2].rotate_left(7),
                _ => {
                    n -= 1;
                    if n == 0 {
                        break;
                    }
                }
            }
            pc = (pc + 1) & 7;
        }
        black_box(r);
        // Maps: 2000 string keys inserted, then looked up twice.
        let mut map: HashMap<String, u64> = HashMap::new();
        for i in 0..2000u64 {
            map.insert(format!("f{}.b{}", i % 97, i), i);
        }
        let mut hits = 0u64;
        for i in 0..4000u64 {
            hits += map
                .get(&format!("f{}.b{}", i % 97, i % 2500))
                .copied()
                .unwrap_or(0);
        }
        black_box(hits);
        // Sort: 20000 pseudo-random words.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut v: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        black_box(v);
    });
    d.as_secs_f64() * 1e3
}

/// CPU time of one [`reference_work`] round on the reference machine
/// (the 2-vCPU VM the bounds were set on), ms.
pub const REFERENCE_WORK_MS: f64 = 3.0;

/// Converts this run's process CPU times into reference-machine ms.
///
/// CPU time leaves out the time the host steals, but not the host's other
/// effects: on the reference VM the CPU time of the same work moved by
/// 10–30% between runs minutes apart (a busy sibling hyperthread, a clock
/// change, shared caches), for all the code of a run at once. A run
/// therefore times [`reference_work`] between its operations and scales
/// its CPU times by `REFERENCE_WORK_MS` over the median round. The
/// reference work is this benchmark's own, so a slower program leaves it
/// alone and a regression shows in full; it tracks the host only in part
/// (in six interleaved pairs of offline-pgo and daemon-mix runs, scaling
/// cut the spread of `cpu_tail_ms` from 7–8% to 4–6% and of
/// `ops_per_cpu_s` from 5–9% to 3–7%).
#[derive(Debug, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Times one round of the reference workload.
    pub fn sample(&mut self) {
        self.0.push(reference_work());
    }

    /// Adds rounds timed elsewhere (another thread), ms.
    pub fn extend(&mut self, ms: &[f64]) {
        self.0.extend_from_slice(ms);
    }

    /// Reference-machine ms per ms of this run.
    pub fn scale(&self) -> f64 {
        REFERENCE_WORK_MS / crate::stats::median(&self.0)
    }

    /// Prints the scale and what it came from.
    pub fn show(&self) {
        println!(
            "  (speed: reference workload median {:.4} ms over {} rounds, scale {:.4})",
            crate::stats::median(&self.0),
            self.0.len(),
            self.scale()
        );
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
/// Returns false where `/proc/self/clear_refs` refuses the write.
fn reset_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Measures the peak RSS inside one layer call. With a resettable
/// `VmHWM` the peak is exact; otherwise it falls back to the larger of
/// the RSS samples taken before and after the call (`/proc/self/statm`
/// style sampling), which can miss a short-lived peak.
pub struct MemWindow {
    exact: bool,
    before_kib: u64,
}

impl MemWindow {
    fn open() -> MemWindow {
        let exact = reset_hwm();
        MemWindow {
            exact,
            before_kib: rss_kib().0,
        }
    }

    /// Peak RSS inside the window, KiB.
    pub fn close(self) -> u64 {
        let (rss, hwm) = rss_kib();
        if self.exact {
            hwm
        } else {
            self.before_kib.max(rss)
        }
    }
}

/// Records layer spans and peaks for a traced run; does nothing but time
/// calls in an untraced one.
pub struct Probe {
    tracer: Option<Tracer>,
    /// Peak RSS per layer, MiB.
    peaks: BTreeMap<&'static str, f64>,
    /// Whether every peak came from a `VmHWM` reset (false = sampled).
    pub exact_peaks: bool,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        Probe {
            tracer: traced.then(|| Tracer::new(TraceLevel::Spans)),
            peaks: BTreeMap::new(),
            exact_peaks: true,
        }
    }

    /// Runs `f` as one call into `layer`, under a span named `span`.
    /// `f` receives the tracer (traced runs only) so a layer that records
    /// its own spans nests them under this one. Returns the result and
    /// the call's wall time, measured from outside.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        span: &str,
        f: impl FnOnce(Option<&mut Tracer>) -> T,
    ) -> (T, Duration) {
        let Some(tracer) = self.tracer.as_mut() else {
            let t = Instant::now();
            let out = f(None);
            return (out, t.elapsed());
        };
        let mem = MemWindow::open();
        self.exact_peaks &= mem.exact;
        let id = tracer.push(span);
        let t = Instant::now();
        let out = f(Some(&mut *tracer));
        let wall = t.elapsed();
        tracer.pop(id, wall);
        let peak = mem.close() as f64 / 1024.0;
        let slot = self.peaks.entry(layer).or_insert(0.0);
        *slot = slot.max(peak);
        (out, wall)
    }

    /// Records an already-measured span with measured child leaves (used
    /// for daemon requests, whose phases the daemon reports itself).
    pub fn record(&mut self, span: &str, wall: Duration, children: &[(String, Duration)]) {
        if let Some(tracer) = self.tracer.as_mut() {
            let id = tracer.push(span);
            for (name, d) in children {
                tracer.leaf_seq(name, *d);
            }
            tracer.pop(id, wall);
        }
    }

    /// Folds in a peak measured around a region this probe did not wrap.
    pub fn note_peak(&mut self, layer: &'static str, mb: f64) {
        let slot = self.peaks.entry(layer).or_insert(0.0);
        *slot = slot.max(mb);
    }

    /// Opens a memory window around a region this probe does not wrap
    /// (see [`Probe::note_peak`]).
    pub fn mem_window(&mut self) -> MemWindow {
        let mem = MemWindow::open();
        self.exact_peaks &= mem.exact;
        mem
    }

    pub fn peaks(&self) -> &BTreeMap<&'static str, f64> {
        &self.peaks
    }

    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Ends a traced run: exports the spans as Chrome JSON to
    /// `perfbench/out/trace-<workload>.json`, checks the export with
    /// `hlo_trace::validate_chrome_trace`, and derives from it the HLO
    /// stage self times and the optimizer time no stage accounts for
    /// (both per pass), plus the per-layer peak memory.
    pub fn export(&self, workload: &str, passes: f64, report: &mut crate::Report) {
        let Some(tracer) = self.tracer() else { return };
        let chrome = hlo_trace::chrome_trace_json(tracer);
        let valid = hlo_trace::validate_chrome_trace(&chrome);
        report.check(valid.is_ok(), || {
            format!("chrome trace rejected: {valid:?}")
        });
        let path = std::path::Path::new("perfbench/out").join(format!("trace-{workload}.json"));
        let written =
            std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, &chrome));
        report.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
        let (own, spans) = match self_times(&chrome) {
            Ok(v) => v,
            Err(e) => {
                report.check(false, || format!("chrome trace unreadable: {e}"));
                return;
            }
        };
        let ms = |us: f64| us / 1e3 / passes.max(1.0);
        let m = &mut report.metrics;
        let mut staged = 0.0;
        for s in crate::HLO_STAGES {
            let us = own.get(*s).copied().unwrap_or(0.0);
            staged += us;
            m.put(&format!("hlo.stage.{s}_ms"), ms(us));
        }
        let outside: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "hlo.optimize")
            .map(|s| s.dur_us as f64)
            .sum();
        m.put("hlo.unattributed_ms", ms(outside - staged));
        m.put("trace.spans", spans as f64);
        for (layer, mb) in self.peaks() {
            m.put(&format!("mem.{layer}_peak_mb"), *mb);
        }
        println!(
            "  trace: {spans} spans -> {} (peaks {})",
            path.display(),
            if self.exact_peaks {
                "from VmHWM resets"
            } else {
                "sampled"
            }
        );
    }
}

/// One complete span read back from a Chrome trace export.
#[derive(Debug, Clone)]
struct Event {
    name: String,
    ts: f64,
    dur: f64,
}

/// Self time of every span name in a Chrome trace export, in µs: each
/// span's duration minus the part its direct children cover, summed by
/// name. Nesting is recovered from the intervals (spans of one thread
/// nest on the tracer's timeline). Also returns the complete-event count.
pub fn self_times(chrome: &str) -> Result<(BTreeMap<String, f64>, usize), String> {
    use hlo_trace::json::{parse, Json};
    let doc = parse(chrome)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents")?;
    let mut spans: Vec<Event> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| Event {
            name: e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            ts: e.get("ts").and_then(Json::as_f64).unwrap_or(0.0),
            dur: e.get("dur").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect();
    // Parents first: earlier start, then longer span; the stable sort
    // keeps creation order (parent before child) for exact ties.
    spans.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(b.dur.total_cmp(&a.dur)));
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (ts, end) = (spans[i].ts, spans[i].ts + spans[i].dur);
        while let Some(&top) = stack.last() {
            if ts >= spans[top].ts && end <= spans[top].ts + spans[top].dur {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            own[parent] -= spans[i].dur;
        }
        stack.push(i);
    }
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *totals.entry(s.name.clone()).or_insert(0.0) += t.max(0.0);
    }
    Ok((totals, spans.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(TraceLevel::Spans);
        let outer = t.push("outer");
        let inner = t.push("inner");
        t.leaf_seq("leaf", Duration::from_micros(30));
        t.pop(inner, Duration::from_micros(50));
        t.leaf_seq("leaf", Duration::from_micros(10));
        t.pop(outer, Duration::from_micros(100));
        let (st, n) = self_times(&hlo_trace::chrome_trace_json(&t)).unwrap();
        assert_eq!(n, 4);
        assert_eq!(st["outer"], 40.0);
        assert_eq!(st["inner"], 20.0);
        assert_eq!(st["leaf"], 40.0);
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let ((), d) = cpu_timed(|| {
            let mut x = 0u64;
            for i in 0..10_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i * i));
            }
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn traced_call_records_a_layer_peak() {
        let mut p = Probe::new(true);
        let (v, _) = p.call("vm", "vm.run", |_| vec![1u8; 1 << 20].len());
        assert_eq!(v, 1 << 20);
        assert!(p.peaks()["vm"] > 0.0);
    }
}
