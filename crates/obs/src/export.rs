//! The trace container and its encoders: Chrome `trace_event` JSON (the
//! visual timeline), a textual span tree (deterministic-trace tests), and
//! the Chrome validator behind the CI trace-smoke gate.

use crate::json::{self, JsonValue};
use crate::trace::{Event, Phase, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A finished trace: a flat list of records, canonically sorted by `(virtual time, rank, per-rank sequence)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The records.
    pub events: Vec<Event>,
}

impl Trace {
    /// Restores the canonical ordering. Virtual times are non-negative, so
    /// their bit patterns order like the values; per-rank clocks are
    /// monotone, so this ordering preserves each rank's emission order
    /// (and therefore span nesting).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.vt.to_bits(), e.rank, e.seq));
    }

    /// Renders the Chrome `trace_event` JSON (load in `chrome://tracing`
    /// or Perfetto). Timestamps are **virtual** microseconds and wall time
    /// is deliberately omitted, so this encoding is byte-identical across
    /// same-seed runs.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\":");
            json::escape_into(&ev.name, &mut out);
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let _ = write!(
                out,
                ",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{}",
                fmt_f64(ev.vt * 1e6),
                ev.rank
            );
            if ev.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":");
                args_json(&ev.args, &mut out);
            }
            out.push('}');
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Renders an indented textual span tree per rank on the virtual-time
    /// axis — the compact deterministic artifact the trace tests compare
    /// byte-for-byte. Instant events print inline at their nesting depth.
    pub fn span_tree(&self) -> String {
        let mut out = String::new();
        let mut ranks: Vec<u32> = self.events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for rank in ranks {
            let _ = writeln!(out, "rank {rank}");
            let mut depth = 0usize;
            for ev in self.events.iter().filter(|e| e.rank == rank) {
                match ev.phase {
                    Phase::Begin => {
                        indent(&mut out, depth + 1);
                        let _ = write!(out, "{} @{}", ev.name, fmt_f64(ev.vt));
                        args_text(&ev.args, &mut out);
                        out.push('\n');
                        depth += 1;
                    }
                    Phase::End => {
                        depth = depth.saturating_sub(1);
                        indent(&mut out, depth + 1);
                        let _ = write!(out, "end {} @{}", ev.name, fmt_f64(ev.vt));
                        args_text(&ev.args, &mut out);
                        out.push('\n');
                    }
                    Phase::Instant => {
                        indent(&mut out, depth + 1);
                        let _ = write!(out, "* {} @{}", ev.name, fmt_f64(ev.vt));
                        args_text(&ev.args, &mut out);
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn args_text(args: &[(Cow<'static, str>, Value)], out: &mut String) {
    for (k, v) in args {
        let _ = write!(out, " {k}=");
        value_text(v, out);
    }
}

fn value_text(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => out.push_str(&fmt_f64(*x)),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
    }
}

/// Deterministic f64 rendering: Rust's shortest-roundtrip `Display`, with
/// non-finite values (never produced by the virtual clock, but a field
/// could carry one) pinned to JSON-safe spellings.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x.is_nan() {
        "\"NaN\"".to_owned()
    } else if x > 0.0 {
        "\"inf\"".to_owned()
    } else {
        "\"-inf\"".to_owned()
    }
}

fn value_json(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => out.push_str(&fmt_f64(*x)),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => json::escape_into(s, out),
    }
}

fn args_json(args: &[(Cow<'static, str>, Value)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(k, out);
        out.push(':');
        value_json(v, out);
    }
    out.push('}');
}

/// Validates a Chrome `trace_event` JSON document: it must parse, every
/// `E` must close the most recent `B` of the *same name on the same tid*,
/// per-tid timestamps must be non-decreasing, and no span may be left
/// open. Returns the number of complete spans.
pub fn validate_chrome(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if let Some(prev) = last_ts.get(&tid) {
            if ts < *prev {
                return Err(format!(
                    "event {i}: tid {tid} timestamp went backwards ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
        match ev.get("ph").and_then(JsonValue::as_str) {
            Some("B") => stacks.entry(tid).or_default().push(name.to_owned()),
            Some("E") => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: orphan E `{name}` on tid {tid}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E `{name}` closes B `{open}` on tid {tid}"
                    ));
                }
                spans += 1;
            }
            Some("i") => {}
            other => return Err(format!("event {i}: bad phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span `{open}` left open on tid {tid}"));
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: u32, seq: u64, vt: f64, phase: Phase, name: &'static str) -> Event {
        Event {
            rank,
            seq,
            vt,
            wall_ns: 0,
            phase,
            name: Cow::Borrowed(name),
            args: vec![],
        }
    }

    #[test]
    fn validator_rejects_orphan_end() {
        let t = Trace {
            events: vec![ev(0, 0, 0.0, Phase::End, "oops")],
        };
        let err = validate_chrome(&t.chrome_json()).unwrap_err();
        assert!(err.contains("orphan E"), "{err}");
    }

    #[test]
    fn validator_rejects_unclosed_span() {
        let t = Trace {
            events: vec![ev(0, 0, 0.0, Phase::Begin, "open")],
        };
        let err = validate_chrome(&t.chrome_json()).unwrap_err();
        assert!(err.contains("left open"), "{err}");
    }

    #[test]
    fn validator_rejects_mismatched_close() {
        let t = Trace {
            events: vec![
                ev(0, 0, 0.0, Phase::Begin, "a"),
                ev(0, 1, 1.0, Phase::End, "b"),
            ],
        };
        let err = validate_chrome(&t.chrome_json()).unwrap_err();
        assert!(err.contains("closes B"), "{err}");
    }

    #[test]
    fn span_tree_is_indented_and_deterministic() {
        let mut t = Trace {
            events: vec![
                ev(0, 0, 0.0, Phase::Begin, "epoch"),
                ev(0, 1, 0.5, Phase::Instant, "note"),
                ev(0, 2, 1.0, Phase::End, "epoch"),
                ev(1, 0, 0.25, Phase::Begin, "stage"),
                ev(1, 1, 0.75, Phase::End, "stage"),
            ],
        };
        t.sort();
        let tree = t.span_tree();
        assert_eq!(
            tree,
            "rank 0\n  epoch @0\n    * note @0.5\n  end epoch @1\nrank 1\n  stage @0.25\n  end stage @0.75\n"
        );
        assert_eq!(tree, t.clone().span_tree());
    }
}
