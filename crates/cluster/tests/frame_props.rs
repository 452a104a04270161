//! Property tests for the length-prefixed frame reader against adversarial
//! stream splits: frames delivered byte-at-a-time, coalesced into one
//! chunk, or fragmented at random boundaries must decode identically;
//! truncated streams must surface *no* partial frame; corrupt prefixes and
//! bodies must fail cleanly (an error value, never a panic).

use p2mdie_cluster::net::{encode_frame, Frame, FrameReader, MAX_FRAME};
use p2mdie_cluster::{CostModel, WorkerReport};
use p2mdie_obs::{Event, Phase, Value};
use proptest::prelude::*;

/// A random frame of every kind the wire carries.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    let envelope = (
        0u32..16,
        any::<bool>(),
        0u64..1_000_000_000,
        proptest::collection::vec(0u8..=255, 0..200),
    )
        .prop_map(|(from, poison, tics, payload)| Frame::Envelope {
            from,
            poison,
            arrival: tics as f64 / 1.0e6,
            payload,
        });
    let hello = (1u32..16, proptest::collection::vec(0u8..=127, 0..30)).prop_map(|(rank, raw)| {
        Frame::Hello {
            magic: p2mdie_cluster::net::MAGIC,
            version: p2mdie_cluster::net::PROTOCOL_VERSION,
            rank,
            addr: raw.into_iter().map(|b| (b % 26 + b'a') as char).collect(),
        }
    });
    let report = (
        0u64..1_000_000,
        0u64..1_000_000,
        proptest::collection::vec((0u64..9999, 0u64..99, 0u64..9), 0..8),
        0u64..100_000,
        0u64..1_000,
    )
        .prop_map(|(t, steps, sends, recovery_bytes, recovery_messages)| {
            Frame::Report(WorkerReport {
                vtime: t as f64 / 1.0e3,
                steps,
                sends,
                recovery_bytes,
                recovery_messages,
                records: (0..steps % 3)
                    .map(|seq| Event {
                        rank: 1,
                        seq,
                        vt: t as f64 / 1.0e3,
                        wall_ns: steps,
                        phase: Phase::Instant,
                        name: "send".into(),
                        args: vec![("bytes".into(), Value::U64(recovery_bytes))],
                    })
                    .collect(),
            })
        });
    let roster =
        proptest::collection::vec((1u32..9, 0u8..26), 0..6).prop_map(|entries| Frame::Roster {
            model: CostModel::beowulf_2005(),
            recording: entries.len() % 2 == 0,
            addrs: entries
                .into_iter()
                .map(|(r, a)| (r, format!("127.0.0.1:{}", 1000 + a as u32)))
                .collect(),
        });
    prop_oneof![envelope, hello, report, roster]
}

/// Splits `stream` into chunks at the given relative cut sizes.
fn chunks<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut cuts = cuts.iter().cycle();
    while i < stream.len() {
        let step = (cuts.next().copied().unwrap_or(1)).clamp(1, stream.len() - i);
        out.push(&stream[i..i + step]);
        i += step;
    }
    out
}

fn drain(reader: &mut FrameReader) -> Vec<Frame> {
    let mut out = Vec::new();
    while let Some(f) = reader.next_frame().expect("valid stream") {
        out.push(f);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any fragmentation of a valid stream decodes to exactly the frames
    /// that were written, in order.
    #[test]
    fn arbitrary_fragmentation_is_transparent(
        frames in proptest::collection::vec(frame_strategy(), 1..8),
        cuts in proptest::collection::vec(1usize..64, 1..10),
    ) {
        let stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();

        // Coalesced: the whole stream in one push.
        let mut coalesced = FrameReader::new();
        coalesced.push(&stream);
        prop_assert_eq!(drain(&mut coalesced), frames.clone());

        // Fragmented at random boundaries, draining after every chunk.
        let mut fragmented = FrameReader::new();
        let mut got = Vec::new();
        for chunk in chunks(&stream, &cuts) {
            fragmented.push(chunk);
            got.extend(drain(&mut fragmented));
        }
        prop_assert_eq!(&got, &frames);

        // Byte at a time.
        let mut trickled = FrameReader::new();
        let mut got = Vec::new();
        for b in &stream {
            trickled.push(std::slice::from_ref(b));
            got.extend(drain(&mut trickled));
        }
        prop_assert_eq!(&got, &frames);
    }

    /// A stream cut anywhere — mid-length-prefix or mid-payload — yields
    /// exactly the fully-contained frames and then stays pending: no
    /// error, no panic, and never a partial frame.
    #[test]
    fn truncation_surfaces_no_partial_frame(
        frames in proptest::collection::vec(frame_strategy(), 1..6),
        cut_num in 0u32..10_000,
    ) {
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        let stream: Vec<u8> = encoded.concat();
        let cut = (cut_num as usize * stream.len()) / 10_000;

        // How many frames are fully contained in the prefix?
        let mut consumed = 0;
        let mut whole = 0;
        for e in &encoded {
            if consumed + e.len() <= cut {
                consumed += e.len();
                whole += 1;
            } else {
                break;
            }
        }

        let mut reader = FrameReader::new();
        reader.push(&stream[..cut]);
        let got = drain(&mut reader);
        prop_assert_eq!(got.len(), whole, "cut at {} of {}", cut, stream.len());
        prop_assert_eq!(got.as_slice(), &frames[..whole]);
        prop_assert_eq!(reader.next_frame().expect("still pending"), None);
    }

    /// A corrupt length prefix fails cleanly and sticks (no resync inside a
    /// corrupt stream), regardless of what was decoded before it.
    #[test]
    fn corrupt_length_prefix_fails_cleanly(
        frames in proptest::collection::vec(frame_strategy(), 0..4),
        over in 1u32..1000,
    ) {
        let mut stream: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        stream.extend_from_slice(&(MAX_FRAME + over).to_le_bytes());
        stream.extend_from_slice(&[0u8; 8]);
        let mut reader = FrameReader::new();
        reader.push(&stream);
        for f in &frames {
            let got = reader.next_frame().expect("prefix valid");
            prop_assert_eq!(got.as_ref(), Some(f));
        }
        prop_assert!(reader.next_frame().is_err());
        reader.push(b"anything");
        prop_assert!(reader.next_frame().is_err(), "the error must stick");
    }

    /// Flipping any single body byte either still decodes (the flip hit a
    /// payload byte) or fails cleanly — never panics, never yields a frame
    /// plus trailing garbage.
    #[test]
    fn corrupt_body_bytes_never_panic(
        frame in frame_strategy(),
        flip_pos in 0u32..10_000,
        flip_bits in 1u8..=255,
    ) {
        let mut raw = encode_frame(&frame);
        let body_start = 4;
        let pos = body_start + (flip_pos as usize) % (raw.len() - body_start);
        raw[pos] ^= flip_bits;
        let mut reader = FrameReader::new();
        reader.push(&raw);
        // Must terminate with Ok(Some)/Ok(None)/Err — the property is the
        // absence of panics and of partial consumption weirdness.
        match reader.next_frame() {
            Ok(Some(_)) => prop_assert_eq!(reader.buffered(), 0, "no trailing garbage"),
            Ok(None) => {}
            Err(_) => {}
        }
    }
}
