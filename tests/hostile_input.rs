//! Hostile-input robustness: arbitrary and truncated byte strings fed
//! to every decoder a peer or a file can reach — the `wormhole-serve`
//! frame reader, its JSON field extractors, and every `Wire` decoder in
//! `net::wire` and `probe::wire`. Each input must come back as a value
//! or a typed error; a panic anywhere fails the test.
//!
//! The inputs are seeded, so every run feeds the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::io::{Cursor, ErrorKind};
use wormhole::net::wire::{from_bytes, to_bytes, Wire, WireError};
use wormhole::net::{
    Addr, Asn, EgressHide, EngineStats, FaultPlan, FaultScenario, FlapSchedule, Label, Lse,
    NonParisLb, RateLimit, ReplyKind, RouterId, SilentSet, TtlSpoof,
};
use wormhole::probe::{
    HopOutcome, PingFailure, PingReply, PingResult, Session, Trace, TraceHop, TracerouteOpts,
};
use wormhole::serve::proto::{
    bool_field, json_escape, num_field, read_frame, str_field, write_frame, MAX_FRAME,
};
use wormhole::topo::{gns3_fig2, Fig2Config};

/// Random inputs per decoder.
const CASES: usize = 2000;

fn rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(0x4057_11E0 ^ salt)
}

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// Feeds `T`'s decoder arbitrary bytes, every strict prefix of each
/// sample's encoding, and randomly corrupted copies of each encoding.
/// Arbitrary and corrupted bytes may decode or fail, but must not
/// panic; a value that decodes must re-encode to the bytes it came
/// from. A cut-short encoding is always [`WireError::Truncated`].
fn hammer<T: Wire + Debug>(name: &str, samples: &[T]) {
    let mut rng = rng(name.len() as u64);
    let check = |bytes: &[u8]| {
        if let Ok(v) = from_bytes::<T>(bytes) {
            assert_eq!(to_bytes(&v), bytes, "{name}: {v:?} re-encodes differently");
        }
    };
    for _ in 0..CASES {
        check(&random_bytes(&mut rng, 96));
    }
    assert!(!samples.is_empty(), "{name}: no samples");
    for v in samples {
        let bytes = to_bytes(v);
        check(&bytes);
        assert!(
            from_bytes::<T>(&bytes).is_ok(),
            "{name}: {v:?} does not decode"
        );
        for cut in 0..bytes.len() {
            assert_eq!(
                from_bytes::<T>(&bytes[..cut]).err(),
                Some(WireError::Truncated),
                "{name}: {cut}-byte prefix of a {}-byte encoding",
                bytes.len()
            );
        }
        for _ in 0..CASES / 10 {
            let mut bad = bytes.clone();
            for _ in 0..rng.gen_range(1..=3usize) {
                let i = rng.gen_range(0..bad.len());
                bad[i] = rng.gen();
            }
            check(&bad);
        }
    }
}

/// Traces and pings a real network — one with an invisible MPLS
/// tunnel, so hops carry quoted labels — plus a hand-built trace that
/// sets every optional field.
fn probe_samples() -> (Vec<Trace>, Vec<PingResult>) {
    let s = gns3_fig2(Fig2Config::Default);
    let mut sess = Session::new(&s.net, &s.cp, s.vp);
    let dsts = [s.target, s.left_addr("PE2"), Addr::new(9, 9, 9, 9)];
    let mut traces: Vec<Trace> = dsts.iter().map(|&d| sess.traceroute(d)).collect();
    let pings = dsts.iter().map(|&d| sess.ping(d)).collect();
    traces.push(Trace {
        src: Addr(1),
        dst: Addr(2),
        flow: 7,
        hops: vec![TraceHop {
            ttl: 3,
            addr: Some(Addr(0x0A00_0102)),
            reply_ip_ttl: Some(253),
            rtt_ms: Some(17.25),
            labels: vec![Lse::new(Label(300), 4), Lse::new(Label(16), 1)],
            kind: Some(ReplyKind::TimeExceeded),
            outcome: HopOutcome::Replied,
            attempts: 1,
            truth: Some(RouterId(9)),
        }],
        reached: false,
        probes: 11,
        truncated: true,
    });
    (traces, pings)
}

#[test]
fn net_wire_decoders_survive_hostile_bytes() {
    hammer("u8", &[0u8, 255]);
    hammer("u16", &[0u16, u16::MAX]);
    hammer("u32", &[0xDEAD_BEEFu32]);
    hammer("u64", &[u64::MAX]);
    hammer("usize", &[0usize, 1 << 40]);
    hammer("bool", &[false, true]);
    hammer("f64", &[-0.0f64, 2.5, f64::MAX]);
    hammer("String", &[String::new(), String::from("wörmhole")]);
    hammer("Option", &[None, Some(7u32)]);
    hammer("Result", &[Ok(7u32), Err(String::from("worker panicked"))]);
    hammer("Vec", &[Vec::new(), vec![1u16, 2, 3]]);
    hammer("pair", &[(Addr::new(10, 0, 0, 1), 3u8)]);
    hammer("triple", &[(1u8, Some(2.5f64), String::from("x"))]);
    hammer("quad", &[(RouterId(4), Asn(3257), Label(19), true)]);
    hammer("Lse", &[Lse::new(Label(19), 1)]);
    hammer(
        "ReplyKind",
        &[
            ReplyKind::EchoReply,
            ReplyKind::TimeExceeded,
            ReplyKind::DestUnreachable,
        ],
    );
    hammer(
        "EngineStats",
        &[EngineStats {
            probes: 1,
            crossings: 2,
            replies: 3,
            lost: 4,
            heap_allocs: 0,
        }],
    );
    hammer(
        "RateLimit",
        &[RateLimit {
            per_sec: 4.0,
            burst: 6.0,
            mpls_only: true,
        }],
    );
    hammer(
        "SilentSet",
        &[SilentSet {
            share: 0.1,
            salt: 7,
        }],
    );
    hammer(
        "FlapSchedule",
        &[FlapSchedule {
            share: 0.05,
            salt: 9,
            period_ms: 100.0,
            down_ms: 10.0,
        }],
    );
    hammer(
        "TtlSpoof",
        &[TtlSpoof {
            share: 0.2,
            salt: 3,
            per_probe: false,
        }],
    );
    hammer(
        "NonParisLb",
        &[NonParisLb {
            share: 0.1,
            salt: 5,
        }],
    );
    hammer(
        "EgressHide",
        &[EgressHide {
            share: 0.3,
            salt: 1,
        }],
    );
    let plans: Vec<FaultPlan> = FaultScenario::ALL.iter().map(|s| s.plan()).collect();
    hammer("FaultPlan", &plans);
}

#[test]
fn decoded_fault_plans_are_validated() {
    let mut bytes = to_bytes(&FaultPlan::none());
    // The leading field is `loss`: spell 1.5, which no constructor
    // accepts.
    bytes[..8].copy_from_slice(&1.5f64.to_bits().to_le_bytes());
    assert_eq!(
        from_bytes::<FaultPlan>(&bytes),
        Err(WireError::Corrupt("fault plan out of range"))
    );
}

#[test]
fn probe_wire_decoders_survive_hostile_bytes() {
    let (traces, pings) = probe_samples();
    hammer(
        "TracerouteOpts",
        &[TracerouteOpts::default(), TracerouteOpts::campaign()],
    );
    hammer(
        "HopOutcome",
        &[
            HopOutcome::Replied,
            HopOutcome::Silent,
            HopOutcome::RateLimited,
            HopOutcome::Unreachable,
            HopOutcome::Lost,
            HopOutcome::BudgetExhausted,
        ],
    );
    let hops: Vec<TraceHop> = traces.iter().flat_map(|t| t.hops.clone()).collect();
    hammer("TraceHop", &hops);
    hammer("Trace", &traces);
    hammer("Vec<Trace>", std::slice::from_ref(&traces));
    hammer(
        "PingFailure",
        &[
            PingFailure::RateLimited,
            PingFailure::Silent,
            PingFailure::Unreachable,
            PingFailure::Lost,
        ],
    );
    hammer(
        "PingReply",
        &[PingReply {
            from: Addr(77),
            reply_ip_ttl: 64,
            rtt_ms: 3.5,
        }],
    );
    hammer("PingResult", &pings);
}

/// Reads frames until the stream ends or errors, returning what was
/// read and how it ended.
fn drain(bytes: &[u8]) -> (Vec<String>, Result<(), ErrorKind>) {
    let mut r = Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut r) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e.kind())),
        }
    }
}

#[test]
fn frame_reader_survives_arbitrary_streams() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let mut bytes = random_bytes(&mut rng, 64);
        // Half the cases get a small length prefix, so payloads are
        // actually read rather than rejected as oversized.
        if rng.gen::<bool>() && bytes.len() >= 4 {
            let len = rng.gen_range(0..=bytes.len() as u32);
            bytes[..4].copy_from_slice(&len.to_be_bytes());
        }
        let (_, end) = drain(&bytes);
        if let Err(kind) = end {
            assert!(
                matches!(kind, ErrorKind::UnexpectedEof | ErrorKind::InvalidData),
                "untyped frame error {kind:?} on {bytes:?}"
            );
        }
    }
    // A hostile length prefix is refused before any payload is read.
    let (frames, end) = drain(&(MAX_FRAME + 1).to_be_bytes());
    assert!(frames.is_empty());
    assert_eq!(end, Err(ErrorKind::InvalidData));
    // So is a payload that is not UTF-8.
    let (_, end) = drain(&[0, 0, 0, 2, 0xC3, 0x28]);
    assert_eq!(end, Err(ErrorKind::InvalidData));
}

#[test]
fn every_cut_of_a_frame_stream_is_clean_or_truncated() {
    let mut rng = rng(2);
    let alphabet = ['a', '"', '\\', ':', '{', '}', 'é', '→', ' ', '7'];
    for _ in 0..64 {
        let payloads: Vec<String> = (0..rng.gen_range(1..=4usize))
            .map(|_| {
                (0..rng.gen_range(0..=12usize))
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            })
            .collect();
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).expect("in-memory write");
            ends.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let (frames, end) = drain(&stream[..cut]);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(frames, payloads[..whole], "cut {cut}");
            let boundary = cut == 0 || ends.contains(&cut);
            let want = if boundary {
                Ok(())
            } else {
                Err(ErrorKind::UnexpectedEof)
            };
            assert_eq!(end, want, "cut {cut} of {}", stream.len());
        }
    }
}

#[test]
fn field_extractors_survive_arbitrary_text() {
    let mut rng = rng(3);
    let alphabet = [
        "\"", "\\", ":", " ", ",", "{", "}", "-", ".", "0", "9", "e", "u", "k", "key", "\"key\"",
        "\"key\":", "true", "fals", "\\u00", "é", "→", "\n",
    ];
    let keys = ["key", "k", "", "\"", "é"];
    for _ in 0..CASES {
        let line: String = (0..rng.gen_range(0..=24usize))
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        for key in keys {
            let _ = str_field(&line, key);
            let _ = num_field(&line, key);
            let _ = bool_field(&line, key);
        }
    }
}

#[test]
fn field_extractors_round_trip_well_formed_fields() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let text: String = (0..rng.gen_range(0..=16usize))
            .map(|_| char::from_u32(rng.gen_range(0..0x800u32)).unwrap_or('?'))
            .collect();
        let num = f64::from_bits(rng.gen());
        let num = if num.is_finite() { num } else { -0.5 };
        let flag = rng.gen::<bool>();
        let line = format!(
            "{{\"text\": \"{}\", \"num\":{num}, \"flag\" :{flag}}}",
            json_escape(&text)
        );
        assert_eq!(str_field(&line, "text").as_deref(), Some(text.as_str()));
        assert_eq!(num_field(&line, "num"), Some(num));
        assert_eq!(bool_field(&line, "flag"), Some(flag));
        assert_eq!(str_field(&line, "missing"), None);
    }
}
