//! Trace-consumer surfaces: Chrome trace-event JSON (loadable in
//! `chrome://tracing` and Perfetto), a human-readable profile table, and
//! the nesting validator the test suites assert with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::tracer::{Event, TraceSnapshot};

fn escape_json(s: &str) -> String {
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

/// Microsecond timestamp with nanosecond precision, as Chrome wants it.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders a snapshot as Chrome trace-event JSON.
///
/// The local process renders as pid 0 named `local_process`; each foreign
/// process (injected worker spans) gets its own pid named after it, so a
/// distributed run lands on one shared timeline with per-worker lanes.
/// Tracer health counters ride along in `otherData`.
#[must_use]
pub fn chrome_trace_json(snap: &TraceSnapshot, local_process: &str) -> String {
    // Stable pid assignment: local first, then foreign processes by name.
    let mut pids: BTreeMap<&str, u32> = BTreeMap::new();
    for event in &snap.events {
        if let Some(p) = &event.process {
            let next = u32::try_from(pids.len()).unwrap_or(u32::MAX) + 1;
            pids.entry(p.as_str()).or_insert(next);
        }
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |obj: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&obj);
    };
    push(
        format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(local_process)
        ),
        &mut first,
    );
    for (process, pid) in &pids {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(process)
            ),
            &mut first,
        );
    }
    for (tid, name) in &snap.threads {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            ),
            &mut first,
        );
    }
    for event in &snap.events {
        let pid = event
            .process
            .as_ref()
            .and_then(|p| pids.get(p.as_str()).copied())
            .unwrap_or(0);
        let label = event.label.as_ref().map_or_else(String::new, |label| {
            format!(",\"label\":\"{}\"", escape_json(label))
        });
        let obj = if event.instant {
            let args = if label.is_empty() {
                String::new()
            } else {
                format!(",\"args\":{{{}}}", &label[1..])
            };
            format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"cat\":\"fsp\",\
                 \"pid\":{pid},\"tid\":{},\"ts\":{}{args}}}",
                escape_json(&event.name),
                event.tid,
                micros(event.start_ns),
            )
        } else {
            // `depth` is the tracer's ground-truth nesting level; viewers
            // ignore it, but tooling can verify nesting without inferring
            // it from (cross-process rebased) intervals.
            format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"fsp\",\
                 \"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"depth\":{}{label}}}}}",
                escape_json(&event.name),
                event.tid,
                micros(event.start_ns),
                micros(event.dur_ns),
                event.depth,
            )
        };
        push(obj, &mut first);
    }
    let _ = write!(
        out,
        "],\"otherData\":{{\"dropped\":{},\"misnested\":{}}}}}",
        snap.dropped, snap.misnested
    );
    out
}

/// One aggregated row of the profile table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name.
    pub name: String,
    /// Spans closed under this name.
    pub count: u64,
    /// Total (inclusive) nanoseconds.
    pub total_ns: u64,
    /// Self nanoseconds: total minus time inside same-thread child spans.
    pub self_ns: u64,
    /// Shortest single span.
    pub min_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// Aggregates span events (instants excluded) by name, most total time
/// first. Self time subtracts each span's same-thread nested children, so
/// a layered stack (`serve.job` > `inject.campaign` > `inject.chunk`)
/// attributes every nanosecond to exactly one row.
#[must_use]
pub fn profile(events: &[Event]) -> Vec<ProfileRow> {
    fn close_frame(event: &Event, child_ns: u64, rows: &mut BTreeMap<String, ProfileRow>) {
        let row = rows
            .entry(event.name.to_string())
            .or_insert_with(|| ProfileRow {
                name: event.name.to_string(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
        row.count += 1;
        row.total_ns += event.dur_ns;
        row.self_ns += event.dur_ns.saturating_sub(child_ns);
        row.min_ns = row.min_ns.min(event.dur_ns);
        row.max_ns = row.max_ns.max(event.dur_ns);
    }
    let mut rows: BTreeMap<String, ProfileRow> = BTreeMap::new();
    // Group span events per (process, tid) lane for the self-time sweep.
    let mut lanes: BTreeMap<(&str, u32), Vec<&Event>> = BTreeMap::new();
    for event in events.iter().filter(|e| !e.instant) {
        lanes
            .entry((event.process.as_deref().unwrap_or(""), event.tid))
            .or_default()
            .push(event);
    }
    for lane in lanes.values_mut() {
        lane.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        // Stack sweep: each open ancestor accumulates its immediate
        // children's durations; self = dur - children on close.
        let mut stack: Vec<(u64, &Event, u64)> = Vec::new(); // (end, event, child_ns)
        for event in lane.iter() {
            let end = event.start_ns + event.dur_ns;
            while let Some(&(top_end, done, child_ns)) = stack.last() {
                if top_end > event.start_ns {
                    break;
                }
                stack.pop();
                close_frame(done, child_ns, &mut rows);
            }
            if let Some(parent) = stack.last_mut() {
                parent.2 += event.dur_ns;
            }
            stack.push((end, event, 0));
        }
        while let Some((_, done, child_ns)) = stack.pop() {
            close_frame(done, child_ns, &mut rows);
        }
    }
    let mut rows: Vec<ProfileRow> = rows.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    rows
}

fn human_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let v = ns as f64;
    if ns >= 1_000_000_000 {
        format!("{:.2}s", v / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the [`profile`] of `snap`'s spans as an aligned text table. A
/// last line says the table is incomplete when the ring dropped events or
/// spans closed out of stack order.
#[must_use]
pub fn render_profile(snap: &TraceSnapshot) -> String {
    let rows = profile(&snap.events);
    let mut out = String::new();
    let name_width = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("span".len()))
        .max()
        .unwrap_or(4);
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
        "span", "count", "total", "self", "mean", "min", "max"
    );
    for row in rows {
        let mean = row.total_ns.checked_div(row.count).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            row.name,
            row.count,
            human_ns(row.total_ns),
            human_ns(row.self_ns),
            human_ns(mean),
            human_ns(row.min_ns),
            human_ns(row.max_ns),
        );
    }
    if snap.dropped > 0 || snap.misnested > 0 {
        let _ = writeln!(
            out,
            "table is incomplete: {} events dropped by the trace ring, {} spans misnested",
            snap.dropped, snap.misnested
        );
    }
    out
}

/// Verifies that span events form strictly nested per-lane timelines: on
/// every `(process, tid)` lane, any two spans are either disjoint or one
/// contains the other. Returns the first violation found.
///
/// # Errors
///
/// Describes the two partially-overlapping spans.
pub fn check_nesting(events: &[Event]) -> Result<(), String> {
    let mut lanes: BTreeMap<(&str, u32), Vec<&Event>> = BTreeMap::new();
    for event in events.iter().filter(|e| !e.instant) {
        lanes
            .entry((event.process.as_deref().unwrap_or(""), event.tid))
            .or_default()
            .push(event);
    }
    for ((process, tid), mut lane) in lanes {
        lane.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut stack: Vec<&Event> = Vec::new();
        for event in lane {
            let end = event.start_ns + event.dur_ns;
            while let Some(top) = stack.last() {
                if top.start_ns + top.dur_ns <= event.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if end > top.start_ns + top.dur_ns {
                    return Err(format!(
                        "lane {process}/{tid}: span `{}` [{}, {end}) partially overlaps \
                         open span `{}` ending at {}",
                        event.name,
                        event.start_ns,
                        top.name,
                        top.start_ns + top.dur_ns,
                    ));
                }
            }
            stack.push(event);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &'static str, tid: u32, start: u64, dur: u64) -> Event {
        Event {
            process: None,
            tid,
            name: Cow::Borrowed(name),
            label: None,
            start_ns: start,
            dur_ns: dur,
            depth: 0,
            instant: false,
        }
    }

    #[test]
    fn profile_attributes_self_time_to_parents() {
        // parent [0, 100) with children [10, 30) and [40, 50).
        let events = vec![
            ev("parent", 1, 0, 100),
            ev("child", 1, 10, 20),
            ev("child", 1, 40, 10),
        ];
        let rows = profile(&events);
        assert_eq!(rows[0].name, "parent");
        assert_eq!(rows[0].total_ns, 100);
        assert_eq!(rows[0].self_ns, 70);
        assert_eq!(rows[1].name, "child");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_ns, 30);
        assert_eq!(rows[1].self_ns, 30);
        assert_eq!(rows[1].min_ns, 10);
        assert_eq!(rows[1].max_ns, 20);
    }

    #[test]
    fn rendered_profile_reports_lost_events() {
        let mut snap = TraceSnapshot {
            events: vec![ev("job", 1, 0, 2000)],
            dropped: 0,
            misnested: 0,
            threads: Vec::new(),
        };
        let complete = render_profile(&snap);
        assert!(complete.contains("job"));
        assert!(!complete.contains("incomplete"));
        snap.dropped = 3;
        assert!(render_profile(&snap).ends_with(
            "table is incomplete: 3 events dropped by the trace ring, 0 spans misnested\n"
        ));
        snap.dropped = 0;
        snap.misnested = 2;
        assert!(render_profile(&snap).contains("0 events dropped by the trace ring, 2 spans"));
    }

    #[test]
    fn nesting_check_accepts_nested_rejects_overlap() {
        let nested = vec![ev("a", 1, 0, 100), ev("b", 1, 10, 20), ev("c", 1, 50, 50)];
        assert!(check_nesting(&nested).is_ok());
        // Same intervals on different threads never conflict.
        let cross = vec![ev("a", 1, 0, 100), ev("b", 2, 50, 100)];
        assert!(check_nesting(&cross).is_ok());
        let overlap = vec![ev("a", 1, 0, 100), ev("b", 1, 50, 100)];
        assert!(check_nesting(&overlap).is_err());
    }

    #[test]
    fn chrome_json_tags_foreign_processes() {
        let mut worker = ev("lease", 3, 500, 1000);
        worker.process = Some("w1".to_owned());
        let snap = TraceSnapshot {
            events: vec![ev("job", 1, 0, 2000), worker],
            dropped: 2,
            misnested: 0,
            threads: vec![(1, "main".to_owned())],
        };
        let json = chrome_trace_json(&snap, "coordinator");
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"name\":\"w1\""));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"lease\",\"cat\":\"fsp\",\"pid\":1"));
        assert!(json.contains("\"ts\":0.500"));
        assert!(json.contains("\"dropped\":2"));
    }
}
