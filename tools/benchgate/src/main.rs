//! `benchgate` — the CI bench-regression gate.
//!
//! Compares a freshly emitted `BENCH_*.json` (the criterion shim's
//! `CRITERION_JSON` output) against the committed baseline and fails when a
//! **metric record** regresses beyond its per-metric tolerance. Only
//! records whose id ends in `-permille` are gated — they are emitted by
//! `criterion::report_metric` and are deterministic (seeded workloads) or
//! slow-moving ratios; raw `mean_ns` timings are informational only, since
//! CI runners vary wildly in speed and core count.
//!
//! ```bash
//! benchgate <baseline.json> <fresh.json>
//! ```
//!
//! Exit status 0 when every gated metric is within tolerance, 1 otherwise
//! (including a metric present in the baseline but missing from the fresh
//! run — a silently dropped metric must not pass CI). Either file is
//! refused, also with status 1, when it is not valid JSON, repeats a record
//! id or carries a `mean_ns` that is not a non-negative integer.
//!
//! ## Tolerance model
//!
//! Every metric id is matched to a [`Gate`]:
//!
//! * `batch-parity-permille` — a **zero-width band at 1000**: the batched
//!   monitor sweep must be verdict-identical to per-frame checking; any
//!   deviation is a correctness bug, not a perf regression.
//! * `k1-parity-permille` — a **band around 1000** with halfwidth 50
//!   (±5%): k = 1 sharding must stay cost-comparable to the monolithic
//!   path in *either* direction. The record is monolithic ÷ k = 1, so the
//!   committed e9 baseline of 1007 means k = 1 is 0.7% faster — well
//!   inside the band; exact parity is not the contract, the band is.
//! * `*-per-sec-*` — higher is better with 50% relative slack: these are
//!   absolute throughput records (e11's frames·1000/s, e8's node
//!   LPs·1000/s, e12's served obligations·1000/s), so runner speed does
//!   *not* cancel the way it does for ratios; the loose floor only catches
//!   an order-of-magnitude collapse, such as the batch monitor path falling
//!   back to per-frame work or the LP engine losing its warm starts.
//! * `dedup-parity-permille` — a **zero-width band at 1000**: a verdict
//!   served from the dedup cache must equal the solved one exactly.
//! * `*hit-rate*`, `*dedup-rate*` — higher is better with absolute slack
//!   25‰: cache-effectiveness ratios of seeded workloads are
//!   deterministic, like the detection rates.
//! * `*warm-request-speedup*` — higher is better with an absolute floor
//!   of 5000‰ (the bench caps the record at 10000): the "warm repeat is
//!   ≥5× cheaper" server contract is gated directly, independent of how
//!   far above 5× the committed baseline happens to sit.
//! * `*parallel-speedup*` — higher is better, 50% relative slack: the
//!   one record, e7's `serve-parallel-speedup-2-permille`, is a measured
//!   multi-core baseline (1740‰, the median of 7 runs on a 2-core host,
//!   committed in `BENCH_e7_multicore.json`), and CI gates it only on
//!   runners with more than one core.
//! * `*speedup*` (anything else) — higher is better, 35% relative slack:
//!   these are timing *ratios*, so runner-speed effects largely cancel,
//!   but shared CI hardware still jitters them.
//! * `warm-hit`, `detection-*`, `families-safe` — higher is better with a
//!   small absolute slack (these are deterministic permille rates from
//!   seeded workloads; the slack absorbs platform float differences).
//! * `volume-ratio` — lower is better (the shard union should stay tight).
//! * anything else ending in `-permille` — higher is better, 10% relative
//!   slack: add an explicit rule when a new metric's direction differs.

use std::process::ExitCode;

/// One parsed benchmark record (the subset of the shim's JSON we need).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Record {
    id: String,
    value: u128,
}

/// Tolerance rule for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Regression = fresh below `baseline - slack`.
    HigherIsBetter { rel_permille: u128, abs: u128 },
    /// Regression = fresh above `baseline + slack`.
    LowerIsBetter { rel_permille: u128, abs: u128 },
    /// Regression = fresh outside `centre ± halfwidth` (baseline-independent).
    Band { centre: u128, halfwidth: u128 },
}

/// Per-metric rule table. Matches on the metric id (which includes the
/// bench prefix, e.g. `e9/k1-parity-permille`).
fn rule_for(id: &str) -> Gate {
    if id.ends_with("batch-parity-permille") {
        // Bit-exactness is a correctness contract, not a measurement: the
        // batched monitor sweep must agree with per-frame checking on every
        // verdict, so the record is exactly 1000 or the gate fails.
        Gate::Band {
            centre: 1000,
            halfwidth: 0,
        }
    } else if id.ends_with("k1-parity-permille") {
        // The documented ±5% parity band around exact parity (1000‰).
        Gate::Band {
            centre: 1000,
            halfwidth: 50,
        }
    } else if id.contains("-per-sec-") {
        // Absolute throughput (frames, node LPs or obligations ·1000/s) is
        // machine-speed dependent in a way the timing *ratios* are not, so
        // the floor is a loose 50% of the committed baseline — it catches
        // order-of-magnitude collapses (e.g. the batch path silently falling
        // back to per-frame work) without flaking on slower CI runners.
        Gate::HigherIsBetter {
            rel_permille: 500,
            abs: 0,
        }
    } else if id.ends_with("dedup-parity-permille") {
        // Serving a deduplicated obligation from the verdict cache must be
        // verdict-identical to solving it — a correctness contract like
        // batch parity, so the band has zero width.
        Gate::Band {
            centre: 1000,
            halfwidth: 0,
        }
    } else if id.ends_with("fault-isolation-parity-permille") {
        // Obligations a fault plan does not touch must be bit-identical
        // to the fault-free run, and the faulted report itself must be
        // run-to-run deterministic — a correctness contract like batch
        // parity, so the band has zero width.
        Gate::Band {
            centre: 1000,
            halfwidth: 0,
        }
    } else if id.ends_with("traced-parity-permille") {
        // Tracing is strictly observational: a traced server's verdicts,
        // fold order and dedup flags must be bit-identical to an
        // untraced server's — a correctness contract like batch parity,
        // so the band has zero width.
        Gate::Band {
            centre: 1000,
            halfwidth: 0,
        }
    } else if id.contains("trace/overhead") {
        // Disabled-tracing overhead per request (permille of request
        // wall time). Lower is better; the absolute slack dominates at
        // the committed single-digit baseline and still keeps the gate
        // far below the 20‰ issue budget the bench itself asserts.
        Gate::LowerIsBetter {
            rel_permille: 1000,
            abs: 10,
        }
    } else if id.contains("deadline-overrun") {
        // How much of a full solve an already-expired request still
        // costs (expired-serve time / full-solve time, in permille).
        // Lower is better; the generous slack absorbs timer jitter on
        // shared runners while still catching the fast path regressing
        // into real solving.
        Gate::LowerIsBetter {
            rel_permille: 1000,
            abs: 50,
        }
    } else if id.ends_with("delta/parity-permille") {
        // Delta-verification verdicts must equal a from-scratch run's
        // bit-for-bit — reuse and absorption are proofs, not heuristics —
        // so like the other parity contracts the band has zero width.
        Gate::Band {
            centre: 1000,
            halfwidth: 0,
        }
    } else if id.contains("hit-rate") || id.contains("dedup-rate") || id.contains("reuse-rate") {
        // Cache, dedup and delta-reuse rates are deterministic permille
        // ratios of seeded workloads (like the detection rates), so they
        // get a small absolute slack rather than a relative one.
        Gate::HigherIsBetter {
            rel_permille: 0,
            abs: 25,
        }
    } else if id.contains("warm-request-speedup") {
        // The resident-server contract: a warm repeat request must stay at
        // least 5× cheaper than the cold first request. The bench caps the
        // record at 10000 (10×), so the absolute floor of 5000 *is* the
        // acceptance criterion rather than a drifting baseline fraction.
        Gate::HigherIsBetter {
            rel_permille: 0,
            abs: 5000,
        }
    } else if id.contains("parallel-speedup") {
        // Multi-core scaling records: baselines measured on a 2-core host
        // (e7's 1740 permille), gated only on runners with more than one
        // core; 50% relative slack absorbs scheduler noise on shared CI
        // runners.
        Gate::HigherIsBetter {
            rel_permille: 500,
            abs: 0,
        }
    } else if id.contains("speedup") {
        Gate::HigherIsBetter {
            rel_permille: 350,
            abs: 0,
        }
    } else if id.contains("warm-hit") {
        Gate::HigherIsBetter {
            rel_permille: 0,
            abs: 20,
        }
    } else if id.contains("detection") {
        Gate::HigherIsBetter {
            rel_permille: 0,
            abs: 30,
        }
    } else if id.contains("families-safe") {
        Gate::HigherIsBetter {
            rel_permille: 0,
            abs: 50,
        }
    } else if id.contains("volume-ratio") {
        Gate::LowerIsBetter {
            rel_permille: 100,
            abs: 10,
        }
    } else {
        Gate::HigherIsBetter {
            rel_permille: 100,
            abs: 25,
        }
    }
}

/// The verdict for one gated metric.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    id: String,
    baseline: u128,
    fresh: Option<u128>,
    passed: bool,
    allowed: String,
}

fn slack(baseline: u128, rel_permille: u128, abs: u128) -> u128 {
    (baseline * rel_permille / 1000).max(abs)
}

/// Evaluates one metric against its rule.
fn evaluate(id: &str, baseline: u128, fresh: u128) -> (bool, String) {
    match rule_for(id) {
        Gate::HigherIsBetter { rel_permille, abs } => {
            let floor = baseline.saturating_sub(slack(baseline, rel_permille, abs));
            (fresh >= floor, format!(">= {floor}"))
        }
        Gate::LowerIsBetter { rel_permille, abs } => {
            let ceiling = baseline + slack(baseline, rel_permille, abs);
            (fresh <= ceiling, format!("<= {ceiling}"))
        }
        Gate::Band { centre, halfwidth } => {
            let lo = centre.saturating_sub(halfwidth);
            let hi = centre + halfwidth;
            (
                (lo..=hi).contains(&fresh),
                format!("in [{lo}, {hi}] (band around {centre})"),
            )
        }
    }
}

/// Minimal parser for the criterion shim's JSON report: extracts every
/// `{"id": "...", "mean_ns": N, ...}` object from the `results` array. The
/// whole document must be valid JSON ([`check_json`]); after that check a
/// targeted scanner is enough, since the format is produced by our own shim,
/// and it tolerates arbitrary whitespace and field order. A record id that
/// appears twice, or a `mean_ns` that is not a non-negative integer, is an
/// error.
fn parse_records(json: &str) -> Result<Vec<Record>, String> {
    check_json(json)?;
    let mut records: Vec<Record> = Vec::new();
    let mut rest = json;
    while let Some(open) = rest.find('{') {
        // Skip the top-level document object: only objects that contain an
        // "id" key before their closing brace are records.
        let Some(close_rel) = rest[open + 1..].find('}') else {
            break;
        };
        let body = &rest[open + 1..open + 1 + close_rel];
        if body.contains("\"id\"") {
            let id = extract_string(body, "id")
                .ok_or_else(|| format!("record without a readable id: {body}"))?;
            let value = extract_integer(body, "mean_ns").ok_or_else(|| {
                format!("record {id} without a non-negative integer mean_ns value")
            })?;
            if records.iter().any(|record| record.id == id) {
                return Err(format!("record id {id} appears twice"));
            }
            records.push(Record { id, value });
            rest = &rest[open + 1 + close_rel..];
        } else {
            // The document object itself: descend into it.
            rest = &rest[open + 1..];
        }
    }
    Ok(records)
}

fn extract_string(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\"");
    let after_key = &body[body.find(&marker)? + marker.len()..];
    let after_colon = &after_key[after_key.find(':')? + 1..];
    let start = after_colon.find('"')? + 1;
    let end = start + after_colon[start..].find('"')?;
    Some(after_colon[start..end].to_string())
}

/// The value of `key` when it is a JSON number made of digits only: no
/// sign, fraction or exponent.
fn extract_integer(body: &str, key: &str) -> Option<u128> {
    let marker = format!("\"{key}\"");
    let after_key = &body[body.find(&marker)? + marker.len()..];
    let after_colon = after_key[after_key.find(':')? + 1..].trim_start();
    let end = after_colon
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(after_colon.len());
    let number = &after_colon[..end];
    if number.bytes().all(|b| b.is_ascii_digit()) {
        number.parse().ok()
    } else {
        None
    }
}

/// Checks that `json` is one JSON value (RFC 8259) with nothing but
/// whitespace around it, by recursive descent, so a baseline with a missing
/// comma or an unclosed bracket is refused before it is scanned.
fn check_json(json: &str) -> Result<(), String> {
    let mut check = JsonCheck {
        bytes: json.as_bytes(),
        at: 0,
    };
    check.value()?;
    check.skip_whitespace();
    if check.at < check.bytes.len() {
        return Err(check.error("text after the document"));
    }
    Ok(())
}

/// The cursor of [`check_json`].
struct JsonCheck<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl JsonCheck<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consumes `byte` if it is next; returns whether it was.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.at += usize::from(next);
        next
    }

    /// Consumes `byte` or fails with `what`.
    fn expect(&mut self, byte: u8, what: &str) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    /// Consumes a run of digits; fails with `what` on none.
    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.error(what));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.sequence(b'}', true),
            Some(b'[') => self.sequence(b']', false),
            Some(b'"') => self.string(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => ["true", "false", "null"]
                .into_iter()
                .find(|word| self.bytes[self.at..].starts_with(word.as_bytes()))
                .map(|word| self.at += word.len())
                .ok_or_else(|| self.error("expected a value")),
        }
    }

    /// An object (`members`: `"key": value` pairs) or an array, from its
    /// opening bracket at the cursor to `close`.
    fn sequence(&mut self, close: u8, members: bool) -> Result<(), String> {
        self.at += 1;
        self.skip_whitespace();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            if members {
                self.skip_whitespace();
                self.string()?;
                self.skip_whitespace();
                self.expect(b':', "expected ':' after a key")?;
            }
            self.value()?;
            self.skip_whitespace();
            if !self.eat(b',') {
                let what = if members {
                    "expected ',' or '}'"
                } else {
                    "expected ',' or ']'"
                };
                return self.expect(close, what);
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"', "expected a string")?;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.at += 1;
                        }
                        Some(b'u')
                            if self.bytes.len() >= self.at + 5
                                && self.bytes[self.at + 1..self.at + 5]
                                    .iter()
                                    .all(u8::is_ascii_hexdigit) =>
                        {
                            self.at += 5;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(0..=0x1f) => return Err(self.error("control character in a string")),
                Some(_) => self.at += 1,
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<(), String> {
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits("expected a digit")?;
        }
        if self.eat(b'.') {
            self.digits("expected a digit after '.'")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits("expected an exponent")?;
        }
        Ok(())
    }
}

/// Gates every `-permille` metric of `baseline_json` against `fresh_json`.
fn gate(baseline_json: &str, fresh_json: &str) -> Result<Vec<Finding>, String> {
    let baseline = parse_records(baseline_json)?;
    let fresh = parse_records(fresh_json)?;
    let mut findings = Vec::new();
    for record in baseline.iter().filter(|r| r.id.ends_with("-permille")) {
        match fresh.iter().find(|f| f.id == record.id) {
            Some(found) => {
                let (passed, allowed) = evaluate(&record.id, record.value, found.value);
                findings.push(Finding {
                    id: record.id.clone(),
                    baseline: record.value,
                    fresh: Some(found.value),
                    passed,
                    allowed,
                });
            }
            None => findings.push(Finding {
                id: record.id.clone(),
                baseline: record.value,
                fresh: None,
                passed: false,
                allowed: "present in the fresh run".to_string(),
            }),
        }
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: benchgate <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))
    };
    let result = read(baseline_path)
        .and_then(|baseline| read(fresh_path).map(|fresh| (baseline, fresh)))
        .and_then(|(baseline, fresh)| gate(&baseline, &fresh));
    let findings = match result {
        Ok(findings) => findings,
        Err(error) => {
            eprintln!("benchgate: {error}");
            return ExitCode::FAILURE;
        }
    };
    if findings.is_empty() {
        println!("benchgate: no -permille metric records in {baseline_path}; nothing gated");
        return ExitCode::SUCCESS;
    }
    let mut failed = 0usize;
    println!("benchgate: {baseline_path} vs {fresh_path}");
    println!(
        "{:<44} {:>10} {:>10}  verdict",
        "metric", "baseline", "fresh"
    );
    for finding in &findings {
        let fresh = finding
            .fresh
            .map_or_else(|| "missing".to_string(), |v| v.to_string());
        let verdict = if finding.passed {
            "ok".to_string()
        } else {
            failed += 1;
            format!("REGRESSION (allowed: {})", finding.allowed)
        };
        println!(
            "{:<44} {:>10} {:>10}  {verdict}",
            finding.id, finding.baseline, fresh
        );
    }
    if failed > 0 {
        eprintln!("benchgate: {failed} metric(s) regressed beyond tolerance");
        ExitCode::FAILURE
    } else {
        println!(
            "benchgate: all {} gated metric(s) within tolerance",
            findings.len()
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, u128)]) -> String {
        let mut out = String::from("{\n  \"host_cpus\": 1,\n  \"results\": [\n");
        for (i, (id, value)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"mean_ns\": {value}, \"min_ns\": {value}, \"samples\": 1}}{comma}\n"
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    #[test]
    fn parser_reads_the_shim_format() {
        let json = report(&[
            ("e9/verify/monolithic", 222487335),
            ("e9/k1-parity-permille", 1007),
        ]);
        let records = parse_records(&json).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "e9/verify/monolithic");
        assert_eq!(records[1].value, 1007);
    }

    /// `parse_records` of `json` fails with an error that names `what`.
    fn assert_refused(json: &str, what: &str) {
        let error = parse_records(json).expect_err("a malformed report must not parse");
        assert!(error.contains(what), "{error}");
        // The gate refuses it on either side.
        let good = report(&[("e9/k1-parity-permille", 1007)]);
        assert!(gate(json, &good).is_err());
        assert!(gate(&good, json).is_err());
    }

    #[test]
    fn a_missing_comma_between_records_is_refused() {
        let json = report(&[
            ("e9/k1-parity-permille", 1007),
            ("e9/volume-ratio-permille", 56),
        ])
        .replacen("},\n", "}\n", 1);
        assert_refused(&json, "expected ',' or ']'");
    }

    #[test]
    fn a_missing_comma_between_fields_is_refused() {
        let json = report(&[("e9/k1-parity-permille", 1007)]).replacen(
            "\"mean_ns\": 1007,",
            "\"mean_ns\": 1007",
            1,
        );
        assert_refused(&json, "expected ',' or '}'");
    }

    #[test]
    fn an_unclosed_document_is_refused() {
        let json = report(&[("e9/k1-parity-permille", 1007)]);
        let json = json
            .trim_end()
            .trim_end_matches('}')
            .trim_end()
            .trim_end_matches(']');
        assert_refused(json, "expected ',' or ']'");
    }

    #[test]
    fn a_duplicate_record_id_is_refused() {
        let json = report(&[
            ("e9/k1-parity-permille", 1007),
            ("e9/volume-ratio-permille", 56),
            ("e9/k1-parity-permille", 1007),
        ]);
        assert_refused(&json, "e9/k1-parity-permille appears twice");
    }

    #[test]
    fn a_mean_ns_that_is_not_a_non_negative_integer_is_refused() {
        let json = report(&[("e9/k1-parity-permille", 1007)]);
        for value in ["12.5", "-5", "1e3", "\"12\""] {
            let bad = json.replacen("\"mean_ns\": 1007", &format!("\"mean_ns\": {value}"), 1);
            assert!(check_json(&bad).is_ok(), "{bad}");
            assert_refused(&bad, "without a non-negative integer mean_ns");
        }
    }

    #[test]
    fn timings_are_not_gated() {
        let baseline = report(&[("e9/verify/monolithic", 1_000_000)]);
        // A 100× timing "regression" passes: timings are informational.
        let fresh = report(&[("e9/verify/monolithic", 100_000_000)]);
        assert!(gate(&baseline, &fresh).unwrap().is_empty());
    }

    #[test]
    fn injected_ten_percent_regression_fails() {
        // The acceptance scenario: a deterministic detection metric drops
        // 10% (800‰ → 720‰). The slack is 30‰ absolute, so this fails.
        let baseline = report(&[("e10/detection-blackout-permille", 800)]);
        let fresh = report(&[("e10/detection-blackout-permille", 720)]);
        let findings = gate(&baseline, &fresh).unwrap();
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].passed);
        // Same for the warm-hit rate (993‰ → 893‰).
        let baseline = report(&[("e8/warm-hit-permille", 993)]);
        let fresh = report(&[("e8/warm-hit-permille", 893)]);
        assert!(!gate(&baseline, &fresh).unwrap()[0].passed);
    }

    #[test]
    fn small_drift_and_improvements_pass() {
        let baseline = report(&[
            ("e10/detection-downpour-permille", 950),
            ("e8/speedup-permille", 6800),
            ("e9/volume-ratio-permille", 56),
        ]);
        let fresh = report(&[
            ("e10/detection-downpour-permille", 940), // within abs slack 30
            ("e8/speedup-permille", 9000),            // improvement
            ("e9/volume-ratio-permille", 50),         // tighter union
        ]);
        assert!(gate(&baseline, &fresh).unwrap().iter().all(|f| f.passed));
    }

    #[test]
    fn parity_band_is_plus_minus_five_percent_around_exact_parity() {
        let baseline = report(&[("e9/k1-parity-permille", 1007)]);
        // 1007 (0.7% slower than monolithic) is inside the band …
        assert!(gate(&baseline, &report(&[("e9/k1-parity-permille", 1007)])).unwrap()[0].passed);
        // … as is anything in [950, 1050] …
        assert!(gate(&baseline, &report(&[("e9/k1-parity-permille", 951)])).unwrap()[0].passed);
        assert!(gate(&baseline, &report(&[("e9/k1-parity-permille", 1049)])).unwrap()[0].passed);
        // … but a 6% deviation in either direction fails.
        assert!(!gate(&baseline, &report(&[("e9/k1-parity-permille", 1060)])).unwrap()[0].passed);
        assert!(!gate(&baseline, &report(&[("e9/k1-parity-permille", 940)])).unwrap()[0].passed);
    }

    #[test]
    fn speedup_ratios_get_relative_slack() {
        let baseline = report(&[("e9/shard-speedup-permille", 11622)]);
        // 35% relative slack: floor is 11622 - 4067 = 7555.
        assert!(
            gate(&baseline, &report(&[("e9/shard-speedup-permille", 7600)])).unwrap()[0].passed
        );
        assert!(
            !gate(&baseline, &report(&[("e9/shard-speedup-permille", 7000)])).unwrap()[0].passed
        );
    }

    #[test]
    fn volume_ratio_gates_increases_only() {
        let baseline = report(&[("e9/volume-ratio-permille", 56)]);
        assert!(gate(&baseline, &report(&[("e9/volume-ratio-permille", 60)])).unwrap()[0].passed);
        assert!(!gate(&baseline, &report(&[("e9/volume-ratio-permille", 80)])).unwrap()[0].passed);
    }

    #[test]
    fn missing_metric_fails_the_gate() {
        let baseline = report(&[("e9/detection-delta-permille", 100)]);
        let fresh = report(&[("e9/verify/monolithic", 12345)]);
        let findings = gate(&baseline, &fresh).unwrap();
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].passed);
        assert_eq!(findings[0].fresh, None);
    }

    #[test]
    fn batch_parity_demands_exact_equality() {
        let baseline = report(&[("e11/batch-parity-permille", 1000)]);
        assert!(
            gate(&baseline, &report(&[("e11/batch-parity-permille", 1000)])).unwrap()[0].passed
        );
        // Any deviation — even 1‰ — is a correctness failure, not noise.
        assert!(
            !gate(&baseline, &report(&[("e11/batch-parity-permille", 999)])).unwrap()[0].passed
        );
        assert!(
            !gate(&baseline, &report(&[("e11/batch-parity-permille", 1001)])).unwrap()[0].passed
        );
        assert!(!gate(&baseline, &report(&[("e11/batch-parity-permille", 0)])).unwrap()[0].passed);
    }

    #[test]
    fn frames_per_sec_floor_is_half_the_baseline() {
        for id in [
            "e11/monitor-batch-frames-per-sec-permille",
            "e8/refine-sweep/node-lps-per-sec-permille",
            "serve/warm-obligations-per-sec-permille",
        ] {
            let baseline = report(&[(id, 92_000_000)]);
            // A slower runner at 60% of the committed throughput passes …
            let fresh = report(&[(id, 55_200_000)]);
            assert!(gate(&baseline, &fresh).unwrap()[0].passed, "{id}");
            // … but dropping below half (a collapse) fails.
            let fresh = report(&[(id, 40_000_000)]);
            assert!(!gate(&baseline, &fresh).unwrap()[0].passed, "{id}");
        }
    }

    #[test]
    fn committed_e11_baseline_passes_against_itself() {
        let baseline = report(&[
            ("e11/batch-parity-permille", 1000),
            ("e11/monitor-batch-speedup-permille", 3160),
            ("e11/sharded-batch-speedup-permille", 3169),
            ("e11/monitor-batch-frames-per-sec-permille", 129_712_061),
            ("e11/sharded-batch-frames-per-sec-permille", 123_076_320),
            ("e11/propagation-batch-speedup-permille", 1887),
        ]);
        let findings = gate(&baseline, &baseline).unwrap();
        assert_eq!(findings.len(), 6);
        assert!(findings.iter().all(|f| f.passed));
    }

    #[test]
    fn dedup_parity_demands_exact_equality() {
        let baseline = report(&[("serve/dedup-parity-permille", 1000)]);
        assert!(
            gate(&baseline, &report(&[("serve/dedup-parity-permille", 1000)])).unwrap()[0].passed
        );
        assert!(
            !gate(&baseline, &report(&[("serve/dedup-parity-permille", 999)])).unwrap()[0].passed
        );
        assert!(
            !gate(&baseline, &report(&[("serve/dedup-parity-permille", 0)])).unwrap()[0].passed
        );
    }

    #[test]
    fn fault_isolation_parity_demands_exact_equality() {
        let baseline = report(&[("serve/fault-isolation-parity-permille", 1000)]);
        let gate_at = |fresh| {
            gate(
                &baseline,
                &report(&[("serve/fault-isolation-parity-permille", fresh)]),
            )
            .unwrap()[0]
                .passed
        };
        assert!(gate_at(1000));
        // Any deviation — a healthy obligation diverging under faults —
        // is a correctness failure, not noise.
        assert!(!gate_at(999));
        assert!(!gate_at(1001));
        assert!(!gate_at(0));
    }

    #[test]
    fn traced_parity_demands_exact_equality() {
        let baseline = report(&[("trace/traced-parity-permille", 1000)]);
        let gate_at = |fresh| {
            gate(
                &baseline,
                &report(&[("trace/traced-parity-permille", fresh)]),
            )
            .unwrap()[0]
                .passed
        };
        assert!(gate_at(1000));
        // Tracing changing any verdict — in either direction — is a
        // correctness failure, not noise.
        assert!(!gate_at(999));
        assert!(!gate_at(1001));
        assert!(!gate_at(0));
    }

    #[test]
    fn trace_overhead_gates_increases_only() {
        let baseline = report(&[("trace/overhead-permille", 3)]);
        let gate_at = |fresh| {
            gate(&baseline, &report(&[("trace/overhead-permille", fresh)])).unwrap()[0].passed
        };
        // Improvements and jitter inside baseline + max(100%, 10) pass …
        assert!(gate_at(0));
        assert!(gate_at(3));
        assert!(gate_at(13));
        // … but disabled tracing growing a real cost fails.
        assert!(!gate_at(14));
        assert!(!gate_at(100));
    }

    #[test]
    fn deadline_overrun_gates_increases_only() {
        let baseline = report(&[("serve/deadline-overrun-permille", 10)]);
        let gate_at = |fresh| {
            gate(
                &baseline,
                &report(&[("serve/deadline-overrun-permille", fresh)]),
            )
            .unwrap()[0]
                .passed
        };
        // Improvements and jitter inside baseline + max(100%, 50) pass …
        assert!(gate_at(0));
        assert!(gate_at(10));
        assert!(gate_at(60));
        // … but the expired fast path degenerating into a meaningful
        // fraction of a real solve fails.
        assert!(!gate_at(61));
        assert!(!gate_at(1000));
    }

    #[test]
    fn cache_rates_get_the_deterministic_absolute_slack() {
        for id in [
            "serve/template-hit-rate-permille",
            "serve/dedup-rate-permille",
        ] {
            let baseline = report(&[(id, 400)]);
            // Within the 25‰ absolute slack …
            assert!(
                gate(&baseline, &report(&[(id, 380)])).unwrap()[0].passed,
                "{id}"
            );
            // … improvements always pass …
            assert!(
                gate(&baseline, &report(&[(id, 600)])).unwrap()[0].passed,
                "{id}"
            );
            // … but a real drop fails (a 10% relative rule would let
            // 360 through; the deterministic class must not).
            assert!(
                !gate(&baseline, &report(&[(id, 360)])).unwrap()[0].passed,
                "{id}"
            );
        }
    }

    #[test]
    fn delta_parity_demands_exact_equality() {
        let baseline = report(&[("delta/parity-permille", 1000)]);
        let gate_at = |fresh| {
            gate(&baseline, &report(&[("delta/parity-permille", fresh)])).unwrap()[0].passed
        };
        assert!(gate_at(1000));
        // A delta verdict diverging from the from-scratch verdict — in
        // either direction — is a soundness failure, not noise.
        assert!(!gate_at(999));
        assert!(!gate_at(1001));
        assert!(!gate_at(0));
    }

    #[test]
    fn reuse_rate_gets_the_deterministic_absolute_slack() {
        let baseline = report(&[("delta/reuse-rate-permille", 750)]);
        let gate_at = |fresh| {
            gate(&baseline, &report(&[("delta/reuse-rate-permille", fresh)])).unwrap()[0].passed
        };
        // Within the 25‰ absolute slack, and improvements always pass …
        assert!(gate_at(750));
        assert!(gate_at(725));
        assert!(gate_at(1000));
        // … but a real reuse drop fails (a 10% relative rule would let
        // 680 through; the deterministic class must not).
        assert!(!gate_at(724));
        assert!(!gate_at(500));
    }

    #[test]
    fn committed_e15_baseline_passes_against_itself() {
        let baseline = report(&[
            ("delta/reuse-rate-permille", 750),
            ("delta/parity-permille", 1000),
            ("delta/speedup-permille", 3045),
        ]);
        let findings = gate(&baseline, &baseline).unwrap();
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.passed));
    }

    #[test]
    fn warm_request_speedup_floor_is_the_five_x_contract() {
        // Committed baseline at the 10000 cap: the floor must stay 5000,
        // not a fraction of the cap.
        let baseline = report(&[("serve/warm-request-speedup-permille", 10000)]);
        let gate_at = |fresh| {
            gate(
                &baseline,
                &report(&[("serve/warm-request-speedup-permille", fresh)]),
            )
            .unwrap()[0]
                .passed
        };
        assert!(gate_at(10000));
        assert!(gate_at(5000), "exactly 5× is still within contract");
        assert!(
            !gate_at(4999),
            "below 5× breaks the resident-server contract"
        );
    }

    #[test]
    fn parallel_speedup_floors_gate_multicore_scaling() {
        // Single-core floor: parallel == serial == 1000‰.
        let baseline = report(&[("e7/parallel-speedup-4-permille", 1000)]);
        assert!(
            gate(
                &baseline,
                &report(&[("e7/parallel-speedup-4-permille", 2600)])
            )
            .unwrap()[0]
                .passed
        );
        assert!(
            gate(
                &baseline,
                &report(&[("e7/parallel-speedup-4-permille", 500)])
            )
            .unwrap()[0]
                .passed,
            "50% relative slack on the floor itself"
        );
        assert!(
            !gate(
                &baseline,
                &report(&[("e7/parallel-speedup-4-permille", 499)])
            )
            .unwrap()[0]
                .passed
        );
        // A multi-core committed baseline gates real scaling.
        let baseline = report(&[("e7/parallel-speedup-4-permille", 2600)]);
        assert!(
            gate(
                &baseline,
                &report(&[("e7/parallel-speedup-4-permille", 1400)])
            )
            .unwrap()[0]
                .passed
        );
        assert!(
            !gate(
                &baseline,
                &report(&[("e7/parallel-speedup-4-permille", 1200)])
            )
            .unwrap()[0]
                .passed
        );
    }

    #[test]
    fn every_committed_baseline_parses_and_passes_against_itself() {
        // A hand-edited baseline that no longer parses, or a parity record
        // committed outside its band, fails here rather than in bench-smoke.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut baselines: Vec<_> = std::fs::read_dir(&root)
            .expect("the workspace root is readable")
            .map(|entry| entry.expect("a readable directory entry").path())
            .filter(|path| {
                path.file_name()
                    .and_then(|name| name.to_str())
                    .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            })
            .collect();
        baselines.sort();
        assert!(
            !baselines.is_empty(),
            "no BENCH_*.json in {}",
            root.display()
        );
        for path in &baselines {
            let json = std::fs::read_to_string(path).expect("a readable baseline");
            let records =
                parse_records(&json).unwrap_or_else(|error| panic!("{}: {error}", path.display()));
            assert!(!records.is_empty(), "{} holds no records", path.display());
            let failed: Vec<Finding> = gate(&json, &json)
                .expect("parsed above")
                .into_iter()
                .filter(|finding| !finding.passed)
                .collect();
            assert!(failed.is_empty(), "{}: {failed:?}", path.display());
        }
    }

    #[test]
    fn committed_e9_baseline_passes_against_itself() {
        let baseline = report(&[
            ("e9/volume-ratio-permille", 56),
            ("e9/k1-parity-permille", 1007),
            ("e9/shard-speedup-permille", 11622),
            ("e9/detection-delta-permille", 100),
        ]);
        let findings = gate(&baseline, &baseline).unwrap();
        assert_eq!(findings.len(), 4);
        assert!(findings.iter().all(|f| f.passed));
    }
}
