//! Metric collection, order statistics, process counters and the
//! result line.

/// A metric list: names with their units, in output order. Units live
/// only here; [`Metrics`] holds values.
pub type Declared = [(&'static str, &'static str)];

/// Metric values in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `name = value`. Non-finite values are stored as 0 so the
    /// result line stays valid JSON.
    pub fn put(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.items.push((name.to_owned(), value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Appends every metric of `other`.
    pub fn extend_from(&mut self, other: &Metrics) {
        self.items.extend(other.items.iter().cloned());
    }

    /// The recorded names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.items.iter().map(|m| m.0.as_str())
    }

    /// `m` projected onto `list`, in its order (0 where a workload does
    /// not exercise a layer). Panics on a metric `list` does not declare.
    pub fn declared(&self, list: &Declared) -> Metrics {
        for name in self.names() {
            assert!(
                list.iter().any(|(n, _)| *n == name),
                "metric {name} is not declared"
            );
        }
        let mut out = Metrics::default();
        for &(name, _) in list {
            out.put(name, self.get(name).unwrap_or(0.0));
        }
        out
    }

    /// Prints one `name value unit` line per metric to stderr.
    pub fn print_table(&self, title: &str, list: &Declared) {
        eprintln!("{title}");
        for (name, value) in &self.items {
            eprintln!("  {name:<36} {value:>16.6} {}", unit(list, name));
        }
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self, list: &Declared) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(n, v)| {
                let u = unit(list, n);
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn unit(list: &Declared, name: &str) -> &'static str {
    list.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// The result line the benchmark ends with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    list: &Declared,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json(list)
    )
}

/// The `p`-quantile (0..=1) by nearest rank over an unsorted sample;
/// 0 for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Each position's best (lowest) time over repeated passes.
///
/// Every workload replays one seeded pass of operations several times,
/// from the same state each time, so an operation at a given position
/// does the same work in every pass. Other tenants of the host only
/// ever add time to an operation, in stretches from milliseconds to
/// minutes, so a position's best time is its cost on a quiet host, and
/// a change to the program moves the best time of every position it
/// touches.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
}

impl BestOf {
    /// `len` positions, none timed yet.
    pub fn new(len: usize) -> BestOf {
        BestOf {
            best: vec![f64::INFINITY; len],
        }
    }

    /// Records one time of position `at`.
    pub fn record(&mut self, at: usize, time: f64) {
        self.best[at] = self.best[at].min(time);
    }

    /// The best time of every timed position.
    pub fn values(&self) -> Vec<f64> {
        self.best.iter().copied().filter(|t| t.is_finite()).collect()
    }

    /// The sum of the best times.
    pub fn total(&self) -> f64 {
        self.values().iter().sum()
    }

    /// Keeps, for each position, the better of the two best times.
    pub fn merge(&mut self, other: &BestOf) {
        for (a, b) in self.best.iter_mut().zip(&other.best) {
            *a = a.min(*b);
        }
    }
}

/// What a process's end-to-end timings come from. The processes of one
/// run each time a share of the passes, and their timings merge.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Every set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Best time of each read request position in a pass, µs.
    pub reads: BestOf,
    /// Best times of the other client operations in a pass, µs:
    /// `maintain`'s ingests, publishes and reopen.
    pub other: Vec<BestOf>,
    /// Estimates one pass serves.
    pub estimates_per_pass: f64,
}

impl Timing {
    /// Adds another process's timings of the same passes.
    pub fn merge(&mut self, other: &Timing) {
        self.setup_s.extend_from_slice(&other.setup_s);
        self.reads.merge(&other.reads);
        for (a, b) in self.other.iter_mut().zip(&other.other) {
            a.merge(b);
        }
    }

    /// `setup_s` (the median set-up), `throughput_qps` (estimates of a
    /// pass over the summed best times of all its operations) and the
    /// read latencies.
    pub fn put(&self, e2e: &mut Metrics) {
        e2e.put("setup_s", median(&self.setup_s));
        let client_us = self.reads.total() + self.other.iter().map(BestOf::total).sum::<f64>();
        e2e.put(
            "throughput_qps",
            ratio(self.estimates_per_pass, client_us / 1e6),
        );
        let reads = self.reads.values();
        e2e.put("latency_p50_us", median(&reads));
        e2e.put("latency_p99_us", quantile(&reads, 0.99));
    }

    /// One line per field, numbers separated by spaces.
    pub fn to_text(&self) -> String {
        let line = |v: &[f64]| v.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(" ");
        let mut out = format!(
            "{}\n{:?}\n{}\n",
            line(&self.setup_s),
            self.estimates_per_pass,
            line(&self.reads.best)
        );
        for b in &self.other {
            out.push_str(&line(&b.best));
            out.push('\n');
        }
        out
    }

    /// Parses [`to_text`](Timing::to_text).
    pub fn from_text(text: &str) -> Option<Timing> {
        let mut lines = text.lines().map(|l| {
            l.split_whitespace()
                .map(str::parse::<f64>)
                .collect::<Result<Vec<f64>, _>>()
                .ok()
        });
        let setup_s = lines.next()??;
        let estimates_per_pass = *lines.next()??.first()?;
        let reads = BestOf {
            best: lines.next()??,
        };
        let other = lines
            .map(|l| l.map(|best| BestOf { best }))
            .collect::<Option<Vec<_>>>()?;
        Some(Timing {
            setup_s,
            reads,
            other,
            estimates_per_pass,
        })
    }
}

/// Process counters read from `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// Peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// User CPU, s.
    pub user_s: f64,
    /// System CPU, s.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
}

/// Resets the peak resident set to the current one, so that `VmHWM`
/// read later leaves out the benchmark's input generation. A no-op
/// where `/proc` is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Reads [`ProcStats`]; fields stay 0 where `/proc` is unavailable.
pub fn proc_stats() -> ProcStats {
    let mut out = ProcStats::default();
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: f64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0.0);
                out.peak_rss_mb = kb / 1024.0;
            }
        }
    }
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name; minflt, utime
        // and stime are fields 10, 14 and 15 of the full line.
        if let Some(close) = stat.rfind(')') {
            let f: Vec<&str> = stat[close + 1..].split_whitespace().collect();
            let field = |n: usize| {
                f.get(n - 3)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            // Linux reports CPU times in USER_HZ ticks, 100 per second.
            out.minor_faults = field(10);
            out.user_s = field(14) / 100.0;
            out.sys_s = field(15) / 100.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_of_keeps_each_positions_minimum() {
        let mut b = BestOf::new(3);
        for (pass, times) in [[5.0, 9.0, 4.0], [3.0, 12.0, 4.5]].iter().enumerate() {
            for (at, &t) in times.iter().enumerate() {
                if pass == 0 || at != 1 {
                    b.record(at, t);
                }
            }
        }
        assert_eq!(b.values(), vec![3.0, 9.0, 4.0]);
        assert_eq!(b.total(), 16.0);
        assert_eq!(BestOf::new(2).values(), Vec::<f64>::new());
    }

    #[test]
    fn timings_merge_and_round_trip() {
        let timing = |reads: [f64; 2], ingest: f64, setup: f64| {
            let mut r = BestOf::new(2);
            r.record(0, reads[0]);
            r.record(1, reads[1]);
            let mut i = BestOf::new(1);
            i.record(0, ingest);
            Timing {
                setup_s: vec![setup],
                reads: r,
                other: vec![i],
                estimates_per_pass: 2.0,
            }
        };
        let mut a = timing([4.0, 1.0], 10.0, 0.5);
        let b = Timing::from_text(&timing([2.0, 3.0], 8.0, 0.25).to_text()).expect("parses");
        a.merge(&b);
        assert_eq!(a.setup_s, vec![0.5, 0.25]);
        assert_eq!(a.reads.values(), vec![2.0, 1.0]);
        let mut m = Metrics::default();
        a.put(&mut m);
        // 2 estimates over 2 + 1 + 8 µs.
        assert_eq!(m.get("throughput_qps"), Some(2.0 / 11e-6));
        assert_eq!(m.get("latency_p50_us"), Some(1.0));
        assert_eq!(m.get("setup_s"), Some(0.25));
    }

    #[test]
    fn json_keeps_all_digits() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789_012_3);
        assert_eq!(
            result_line(true, 3, 0, &m, &[("latency_ms", "ms")]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}}}"
        );
    }
}
