//! Exporters: Chrome-trace (Perfetto) JSON, metrics snapshots as JSON and
//! CSV, and the shared JSON string escaper.
//!
//! The Chrome trace-event format puts every slice on a `(pid, tid)` row;
//! Perfetto renders each `pid` as a collapsible *track group* named by its
//! `process_name` metadata event. [`ChromeTrace`] exploits that to carry a
//! **modeled** schedule (pid 1) and the **measured** execution (pid 2) in
//! one file — the paper's Fig. 4 comparison, diffable in one viewer window.
//!
//! Everything here is hand-rolled JSON (the crate is dependency-free);
//! [`json_escape`] and [`json_num`] are the single string escaper and
//! number formatter every writer in the workspace shares, and
//! [`validate_json`] is a strict syntax checker used by tests
//! and the CI smoke job to prove emitted artifacts parse.

use crate::{EventRecord, MetricsSnapshot, Recorder, SpanRecord};
use std::fmt::Write as _;

/// Escape a string for embedding inside a JSON string literal
/// (quotes, backslashes, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Track-group id of the measured execution in emitted traces (a modeled
/// schedule, where one is drawn beside it, takes pid 1).
const PID_MEASURED: u32 = 2;

/// Builder for a Chrome trace-event JSON document with named track groups.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Name the track group `pid` (a `process_name` metadata event).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Add a complete slice (`ph:"X"`) on row `(pid, tid)`.
    pub fn complete(&mut self, pid: u32, tid: &str, name: &str, ts_us: f64, dur_us: f64) {
        self.complete_with_args(pid, tid, name, ts_us, dur_us, &[]);
    }

    /// Add a complete slice with key/value `args`.
    pub fn complete_with_args(
        &mut self,
        pid: u32,
        tid: &str,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        let mut ev = format!(
            "{{\"name\":\"{}\",\"cat\":\"pattern\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"pid\":{pid},\"tid\":\"{}\"",
            json_escape(name),
            json_escape(tid),
        );
        push_args(&mut ev, args);
        ev.push('}');
        self.events.push(ev);
    }

    /// Add a counter sample (`ph:"C"`) — trace viewers render these as a
    /// value-over-time track named `name` (the flight recorder uses this
    /// for gauge/counter history).
    pub fn counter(&mut self, pid: u32, name: &str, ts_us: f64, value: f64) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts_us:.3},\"pid\":{pid},\"args\":{{\"value\":{}}}}}",
            json_escape(name),
            json_num(value),
        ));
    }

    /// Add an instantaneous event (`ph:"i"`) with key/value `args`.
    pub fn instant(
        &mut self,
        pid: u32,
        tid: &str,
        name: &str,
        ts_us: f64,
        args: &[(&str, String)],
    ) {
        let mut ev = format!(
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":\"{}\"",
            json_escape(name),
            json_escape(tid),
        );
        push_args(&mut ev, args);
        ev.push('}');
        self.events.push(ev);
    }

    /// Add every span as a slice in track group `pid` (tid = span track).
    pub fn add_spans(&mut self, pid: u32, spans: &[SpanRecord]) {
        for s in spans {
            self.complete(
                pid,
                &s.track,
                &s.name,
                s.start_s * 1e6,
                (s.dur_s * 1e6).max(0.001),
            );
        }
    }

    /// Add every event as an instant in track group `pid` on one row.
    pub fn add_events(&mut self, pid: u32, tid: &str, events: &[EventRecord]) {
        for e in events {
            let args: Vec<(&str, String)> = e
                .args
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            self.instant(pid, tid, &e.name, e.ts_s * 1e6, &args);
        }
    }

    /// Add what `rec` measured as track group "measured" (pid 2): every
    /// span on its own track's row, every event as an instant on the
    /// `events` row.
    pub fn add_measured(&mut self, rec: &Recorder) {
        self.process_name(PID_MEASURED, "measured");
        self.add_spans(PID_MEASURED, &rec.spans());
        self.add_events(PID_MEASURED, "events", &rec.events());
    }

    /// Serialize as `{"traceEvents":[...]}`.
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&self.events.join(","));
        out.push_str("]}");
        out
    }
}

fn push_args(ev: &mut String, args: &[(&str, String)]) {
    if args.is_empty() {
        return;
    }
    ev.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            ev.push(',');
        }
        let _ = write!(ev, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    ev.push('}');
}

impl MetricsSnapshot {
    /// Serialize as a JSON document:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,...}},"windows":{name:{window_s,...}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(k), json_num(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
                json_escape(k),
                h.count,
                json_num(h.sum),
                json_num(h.mean),
                json_num(h.min),
                json_num(h.p50),
                json_num(h.p95),
                json_num(h.max),
            );
        }
        out.push_str("},\"windows\":{");
        for (i, (k, w)) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"window_s\":{},\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"p50\":{},\"p95\":{},\"max\":{},\"rate_per_s\":{},\"ewma\":{}}}",
                json_escape(k),
                json_num(w.window_s),
                w.count,
                json_num(w.sum),
                json_num(w.mean),
                json_num(w.min),
                json_num(w.p50),
                json_num(w.p95),
                json_num(w.max),
                json_num(w.rate_per_s),
                json_num(w.ewma),
            );
        }
        out.push_str("}}");
        out
    }

    /// Serialize as CSV with one row per metric:
    /// `kind,name,value,count,sum,mean,min,p50,p95,max`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value,count,sum,mean,min,p50,p95,max\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter,{},{v},,,,,,,", csv_field(k));
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge,{},{v},,,,,,,", csv_field(k));
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram,{},,{},{},{},{},{},{},{}",
                csv_field(k),
                h.count,
                h.sum,
                h.mean,
                h.min,
                h.p50,
                h.p95,
                h.max
            );
        }
        for (k, w) in &self.windows {
            // `value` carries the windowed rate; the summary columns line
            // up with the histogram rows.
            let _ = writeln!(
                out,
                "window,{},{},{},{},{},{},{},{},{}",
                csv_field(k),
                w.rate_per_s,
                w.count,
                w.sum,
                w.mean,
                w.min,
                w.p50,
                w.p95,
                w.max
            );
        }
        out
    }
}

/// A float as JSON: the shortest digits that parse back to the same bits,
/// or `null` when it is not finite (JSON has no NaN/Infinity).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A parsed JSON value (the dependency-free reader half of this module).
///
/// Objects keep their key order as a `Vec` of pairs — the workspace's
/// documents are small enough that linear [`get`](JsonValue::get) beats a
/// map, and order-preservation makes round-trip tests deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document into a [`JsonValue`].
///
/// Strict syntax (same grammar [`validate_json`] enforces); the error is
/// the byte offset of the first syntax error.
pub fn parse_json(s: &str) -> Result<JsonValue, usize> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i == b.len() {
        Ok(v)
    } else {
        Err(p.i)
    }
}

/// Strict JSON syntax check (objects, arrays, strings, numbers, literals).
///
/// Returns the byte offset of the first syntax error, if any. This exists
/// so the workspace can assert its emitted artifacts parse without pulling
/// a JSON dependency into test builds.
pub fn validate_json(s: &str) -> Result<(), usize> {
    parse_json(s).map(|_| ())
}

/// Validate newline-delimited JSON (the `/metrics/stream` wire format):
/// every non-empty line must be one complete JSON document.
///
/// Returns the number of non-empty lines validated; on failure,
/// `(line, byte)` — the **1-based line number** of the first offending
/// line and the byte offset of the error within that line. `swe_load`
/// self-checks each streamed snapshot line with this.
pub fn validate_ndjson(s: &str) -> Result<usize, (usize, usize)> {
    let mut n = 0;
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|at| (i + 1, at))?;
        n += 1;
    }
    Ok(n)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), usize> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.i)
        }
    }

    fn value(&mut self) -> Result<JsonValue, usize> {
        match self.peek().ok_or(self.i)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(JsonValue::Str),
            b't' => self.literal(b"true").map(|_| JsonValue::Bool(true)),
            b'f' => self.literal(b"false").map(|_| JsonValue::Bool(false)),
            b'n' => self.literal(b"null").map(|_| JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number().map(JsonValue::Num),
            _ => Err(self.i),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), usize> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.i)
        }
    }

    fn object(&mut self) -> Result<JsonValue, usize> {
        self.eat(b'{')?;
        self.ws();
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.ws();
            match self.peek().ok_or(self.i)? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.i),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, usize> {
        self.eat(b'[')?;
        self.ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek().ok_or(self.i)? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.i),
            }
        }
    }

    fn string(&mut self) -> Result<String, usize> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek().ok_or(self.i)? {
                        c @ (b'"' | b'\\' | b'/') => {
                            out.push(c as char);
                            self.i += 1;
                        }
                        b'b' => {
                            out.push('\u{8}');
                            self.i += 1;
                        }
                        b'f' => {
                            out.push('\u{c}');
                            self.i += 1;
                        }
                        b'n' => {
                            out.push('\n');
                            self.i += 1;
                        }
                        b'r' => {
                            out.push('\r');
                            self.i += 1;
                        }
                        b't' => {
                            out.push('\t');
                            self.i += 1;
                        }
                        b'u' => {
                            self.i += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by \u-escaped low surrogate.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.i);
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c).ok_or(self.i)?
                                } else {
                                    return Err(self.i);
                                }
                            } else {
                                char::from_u32(cp).ok_or(self.i)?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.i),
                    }
                }
                0x00..=0x1f => return Err(self.i),
                _ => {
                    // Copy one UTF-8 scalar (the input is a &str, so byte
                    // boundaries are already valid).
                    let rest = &self.b[self.i..];
                    let len = utf8_len(rest[0]);
                    out.push_str(std::str::from_utf8(&rest[..len]).map_err(|_| self.i)?);
                    self.i += len;
                }
            }
        }
        Err(self.i)
    }

    fn hex4(&mut self) -> Result<u32, usize> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let h = self.peek().ok_or(self.i)?;
            let d = (h as char).to_digit(16).ok_or(self.i)?;
            cp = cp * 16 + d;
            self.i += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<f64, usize> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.i += 1;
                // Strict JSON: no leading zeros.
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return Err(self.i);
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err(start),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.i);
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.i);
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or(start)
    }
}

/// Length in bytes of the UTF-8 sequence starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn escaper_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json("{\"a\":[1,2.5,-3e4],\"b\":\"x\\\"y\",\"c\":null}").is_ok());
        assert!(validate_json("  [true, false] ").is_ok());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("{'a':1}").is_err());
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01").is_err()); // trailing garbage after 0
    }

    #[test]
    fn chrome_trace_with_two_track_groups_is_valid_json() {
        let mut t = ChromeTrace::new();
        t.process_name(1, "modeled");
        t.process_name(2, "measured");
        t.complete(1, "cpu", "B1", 0.0, 10.0);
        t.complete_with_args(2, "cpu-pool", "B1", 1.0, 9.0, &[("chunk", "0".into())]);
        t.instant(1, "sched", "decision", 0.0, &[("placement", "acc".into())]);
        let json = t.finish();
        validate_json(&json).unwrap_or_else(|p| panic!("invalid JSON at byte {p}: {json}"));
        assert!(json.contains("\"pid\":1") && json.contains("\"pid\":2"));
        assert!(json.contains("modeled") && json.contains("measured"));
    }

    #[test]
    fn hostile_names_stay_valid_json() {
        let mut t = ChromeTrace::new();
        t.complete(1, "tid\"quote", "name\\back\nslash", 0.5, 1.5);
        let json = t.finish();
        validate_json(&json).unwrap_or_else(|p| panic!("invalid JSON at byte {p}: {json}"));
    }

    #[test]
    fn spans_and_events_export_to_trace() {
        let rec = Recorder::new();
        {
            let _a = rec.span("main", "step");
            let _b = rec.span("main", "kernel");
        }
        rec.event("sched.decision", &[("task", "A1".to_string())]);
        let mut t = ChromeTrace::new();
        t.process_name(2, "measured");
        t.add_spans(2, &rec.spans());
        t.add_events(2, "sched", &rec.events());
        let json = t.finish();
        validate_json(&json).unwrap_or_else(|p| panic!("invalid JSON at byte {p}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
    }

    #[test]
    fn snapshot_json_and_csv_roundtrip_shapes() {
        let rec = Recorder::new();
        rec.add("msg.halo.bytes_sent", 4096);
        rec.set_gauge("core.sim.mass_drift", -3.5e-15);
        rec.record("swe.kernel.A1.seconds", 0.001);
        rec.record("swe.kernel.A1.seconds", 0.002);
        let snap = rec.snapshot();
        let json = snap.to_json();
        validate_json(&json).unwrap_or_else(|p| panic!("invalid JSON at byte {p}: {json}"));
        assert!(json.contains("\"msg.halo.bytes_sent\":4096"));
        assert!(json.contains("\"count\":2"));
        let csv = snap.to_csv();
        assert!(csv.lines().count() == 4); // header + 3 metrics
        assert!(csv.starts_with("kind,name,value"));
        assert!(csv.contains("counter,msg.halo.bytes_sent,4096"));
    }

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let snap = Recorder::noop().snapshot();
        assert!(validate_json(&snap.to_json()).is_ok());
        assert_eq!(snap.to_csv().lines().count(), 1);
    }

    #[test]
    fn parse_json_builds_values() {
        let v = parse_json("{\"a\":[1,2.5,-3e4],\"b\":\"x\\\"y\\u0041\",\"c\":null,\"d\":true}")
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3e4)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_json_handles_surrogate_pairs_and_unicode() {
        let v = parse_json("\"\\ud83d\\ude00 caf\u{e9}\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600} caf\u{e9}"));
        // Lone high surrogate is rejected.
        assert!(parse_json("\"\\ud83d\"").is_err());
    }

    #[test]
    fn snapshot_json_parses_back_with_sum() {
        let rec = Recorder::new();
        rec.record("m", 1.0);
        rec.record("m", 3.0);
        let v = parse_json(&rec.snapshot().to_json()).unwrap();
        let h = v.get("histograms").unwrap().get("m").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(h.get("sum").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn ndjson_validator_counts_lines_and_locates_errors() {
        assert_eq!(validate_ndjson(""), Ok(0));
        assert_eq!(validate_ndjson("{\"a\":1}\n[2,3]\n\n{\"b\":4}\n"), Ok(3));
        // Line 2 is broken at byte 5 (`,]` after the 2).
        assert_eq!(validate_ndjson("{\"a\":1}\n[1,2,]\n{\"b\":4}"), Err((2, 5)));
        // Blank lines don't shift the reported line number.
        assert_eq!(validate_ndjson("\n\nnot json"), Err((3, 0)));
    }

    #[test]
    fn windows_serialize_to_json_and_csv() {
        let rec = Recorder::new();
        rec.rolling_window("w.metric", 30.0);
        rec.record("w.metric", 1.5);
        rec.record("w.metric", 2.5);
        let snap = rec.snapshot();
        let json = snap.to_json();
        validate_json(&json).unwrap_or_else(|p| panic!("invalid JSON at byte {p}: {json}"));
        let v = parse_json(&json).unwrap();
        let w = v.get("windows").unwrap().get("w.metric").unwrap();
        assert_eq!(w.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(w.get("window_s").unwrap().as_f64(), Some(30.0));
        assert!(w.get("ewma").unwrap().as_f64().is_some());
        let csv = snap.to_csv();
        assert!(csv.contains("window,w.metric,"));
    }

    #[test]
    fn chrome_counter_events_are_valid() {
        let mut t = ChromeTrace::new();
        t.counter(3, "queue.depth", 1000.0, 4.0);
        t.counter(3, "bad", 2000.0, f64::NAN);
        let json = t.finish();
        validate_json(&json).unwrap_or_else(|p| panic!("invalid JSON at byte {p}: {json}"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":null"));
    }

    #[test]
    fn nonfinite_gauges_become_null() {
        let rec = Recorder::new();
        rec.set_gauge("bad", f64::NAN);
        let json = rec.snapshot().to_json();
        assert!(validate_json(&json).is_ok());
        assert!(json.contains("\"bad\":null"));
    }
}
