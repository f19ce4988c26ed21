//! Hostile-input robustness: arbitrary and truncated byte strings fed
//! to every decoder a peer can reach — the `wormhole-serve` frame
//! reader and its JSON field extractors. Each input must come back as
//! a value or a typed error; a panic anywhere fails the test.
//!
//! The inputs are seeded, so every run feeds the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Cursor, ErrorKind};
use wormhole::serve::proto::{
    bool_field, json_escape, num_field, read_frame, str_field, write_frame, MAX_FRAME,
};

/// Random inputs per test.
const CASES: usize = 2000;

fn rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(0x4057_11E0 ^ salt)
}

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen::<u8>()).collect()
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
