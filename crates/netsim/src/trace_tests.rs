//! Unit tests for [`super`] (the typed trace ring and its exports), kept
//! in a child module.

use super::*;
use crate::time::SimDuration;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Records a row whose one string field, the model name, is `detail`.
fn ev(trace: &mut Trace, secs: u64, detail: &str) {
    trace.record(
        t(secs),
        NodeId(0),
        TraceEventKind::SelectionDecided {
            model: detail.to_string(),
            chosen: NodeId(1),
            costs: Vec::new(),
        },
    );
}

#[test]
fn disabled_records_nothing() {
    let mut tr = Trace::disabled();
    ev(&mut tr, 1, "x");
    assert!(tr.is_empty());
    assert!(!tr.is_enabled());
    assert!(tr.to_jsonl().is_empty());
}

#[test]
fn ring_buffer_evicts_oldest() {
    let mut tr = Trace::with_capacity(2);
    ev(&mut tr, 1, "a");
    ev(&mut tr, 2, "b");
    ev(&mut tr, 3, "c");
    assert_eq!(tr.len(), 2);
    assert_eq!(tr.dropped(), 1);
    let details: Vec<String> = tr.events().map(|e| e.to_json()).collect();
    assert!(details[0].contains("\"b\""));
    assert!(details[1].contains("\"c\""));
}

#[test]
fn digest_matches_iff_jsonl_matches() {
    let mut a = Trace::with_capacity(16);
    let mut b = Trace::with_capacity(16);
    ev(&mut a, 1, "x");
    ev(&mut b, 1, "x");
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
    ev(&mut b, 2, "y");
    assert_ne!(a.digest(), b.digest());
    assert_ne!(a.to_jsonl(), b.to_jsonl());
    assert_eq!(b.digest(), fnv1a(b.to_jsonl().as_bytes()));
    assert_eq!(Trace::with_capacity(16).digest(), fnv1a(b""));
}

/// The published FNV-1a 64-bit test vectors.
#[test]
fn fnv1a_gives_the_published_values() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn json_escapes_strings() {
    let mut tr = Trace::with_capacity(4);
    ev(&mut tr, 1, "quote\" slash\\ ctrl\n");
    let line = tr.events().next().unwrap().to_json();
    assert!(line.contains("quote\\\" slash\\\\ ctrl\\u000a"));
}

#[test]
fn typed_events_render_their_fields() {
    let mut tr = Trace::with_capacity(16);
    tr.record(
        t(1),
        NodeId(0),
        TraceEventKind::MessageSent {
            to: NodeId(2),
            msg: "petition",
            bytes: 64,
            tx_start: t(1),
            deliver_at: t(2),
        },
    );
    tr.record(
        t(2),
        NodeId(0),
        TraceEventKind::SelectionDecided {
            model: "economic".into(),
            chosen: NodeId(3),
            costs: vec![(NodeId(1), 0.5), (NodeId(3), f64::INFINITY)],
        },
    );
    tr.record(
        t(3),
        NodeId(0),
        TraceEventKind::Retransmission {
            transfer: 7,
            part: None,
            attempt: 2,
        },
    );
    let lines: Vec<String> = tr.events().map(|e| e.to_json()).collect();
    assert!(lines[0].contains("\"ev\":\"message_sent\""));
    assert!(lines[0].contains("\"deliver_at\":2000000000"));
    assert!(lines[1].contains("\"costs\":[[1,0.5],[3,null]]"));
    assert!(lines[2].contains("\"part\":null"));
    assert!(lines[2].contains("\"attempt\":2"));
}

#[test]
fn merged_orders_by_time_with_shard_order_tiebreak() {
    let mut a = Trace::with_capacity(8);
    let mut b = Trace::with_capacity(8);
    ev(&mut a, 1, "a1");
    ev(&mut a, 3, "a3");
    ev(&mut b, 1, "b1");
    ev(&mut b, 2, "b2");
    let m = Trace::merged(&[&a, &b]);
    assert!(m.is_enabled());
    assert_eq!(m.len(), 4);
    let details: Vec<String> = m.events().map(|e| e.to_json()).collect();
    assert!(details[0].contains("a1"), "shard 0 wins the t=1 tie");
    assert!(details[1].contains("b1"));
    assert!(details[2].contains("b2"));
    assert!(details[3].contains("a3"));
    assert_eq!(m.dropped(), 0);
}

#[test]
fn display_is_readable() {
    let mut tr = Trace::with_capacity(4);
    ev(&mut tr, 1, "hello");
    let s = tr.events().next().unwrap().to_string();
    assert!(s.contains("n0"));
    assert!(s.contains("hello"));
}
