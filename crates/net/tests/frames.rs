//! Fuzz-style property tests for the framing layer: payloads survive
//! arbitrary chunking, no corruption of the byte stream can make the
//! reassembly buffer panic or stage an oversized allocation, and the
//! in-place delta frame encoder writes exactly the generic encoder's
//! bytes.

use dynamis_core::{EngineStats, SolutionDelta};
use dynamis_net::error::NetError;
use dynamis_net::frame::{FrameBuffer, MAX_FRAME};
use dynamis_net::proto::{encode_delta_frame, encode_response, Response};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn encode_frames(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for p in payloads {
        stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
        stream.extend_from_slice(p);
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of frames, delivered in arbitrary chunk sizes,
    /// reassembles to exactly the original payloads in order.
    #[test]
    fn reassembly_is_chunking_invariant(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..8usize))
            .map(|_| {
                (0..rng.gen_range(0..300usize))
                    .map(|_| rng.gen_range(0..256u32) as u8)
                    .collect()
            })
            .collect();
        let stream = encode_frames(&payloads);
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let take = rng.gen_range(1..17usize).min(stream.len() - pos);
            fb.extend(&stream[pos..pos + take]);
            pos += take;
            while let Some(frame) = fb.next_frame().map_err(|e| TestCaseError::fail(e.to_string()))? {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(fb.pending(), 0, "no bytes may linger after the last frame");
    }

    /// Corrupting the stream never panics: every outcome is either a
    /// (wrong) frame or a typed `TooLong` error, and an error is sticky
    /// grounds for closing — exactly what the server session does.
    #[test]
    fn corruption_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..4usize))
            .map(|_| (0..rng.gen_range(0..64usize)).map(|_| rng.gen_range(0..256u32) as u8).collect())
            .collect();
        let mut stream = encode_frames(&payloads);
        for _ in 0..rng.gen_range(1..6usize) {
            let i = rng.gen_range(0..stream.len());
            stream[i] = rng.gen_range(0..256u32) as u8;
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&stream);
        loop {
            match fb.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(NetError::Wire(_)) => break, // typed rejection: close the connection
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error kind: {e}"))),
            }
        }
    }

    /// `encode_delta_frame` appends the length prefix plus exactly the
    /// payload `encode_response` writes for the same `Delta`, leaving
    /// whatever `out` already held untouched.
    #[test]
    fn delta_frame_matches_generic_encoder(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let members = |rng: &mut SmallRng| -> Vec<u32> {
            (0..rng.gen_range(0..40usize)).map(|_| rng.gen::<u32>()).collect()
        };
        let delta = SolutionDelta {
            entered: members(&mut rng),
            left: members(&mut rng),
            stats: EngineStats {
                updates: rng.gen(),
                one_swaps: rng.gen(),
                two_swaps: rng.gen(),
                perturbations: rng.gen(),
                repairs: rng.gen(),
                entry_scan_steps: rng.gen(),
                hot_hash_probes: rng.gen(),
            },
        };
        let seq = rng.gen::<u64>();
        let prior: Vec<u8> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(0..256u32) as u8)
            .collect();

        let mut payload = Vec::new();
        encode_response(&Response::Delta { seq, delta: delta.clone() }, &mut payload);
        let mut expected = prior.clone();
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(&payload);

        let mut got = prior;
        encode_delta_frame(seq, &delta, &mut got);
        prop_assert_eq!(got, expected);
    }
}

/// A length prefix just above the cap is refused before any allocation;
/// one at the cap is accepted (once its payload arrives).
#[test]
fn frame_cap_is_exact() {
    let mut fb = FrameBuffer::new();
    fb.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
    assert!(fb.next_frame().is_err());

    let mut fb = FrameBuffer::new();
    fb.extend(&(8u32).to_le_bytes());
    assert!(fb.next_frame().unwrap().is_none(), "payload not yet here");
    fb.extend(&[1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(
        fb.next_frame().unwrap().unwrap(),
        vec![1, 2, 3, 4, 5, 6, 7, 8]
    );
}
