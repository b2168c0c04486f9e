//! Fuzz-style property tests for the partition manifest's text decoder:
//! arbitrary text and mutated valid manifests must never panic or
//! over-allocate — they decode or return a structured error — and a
//! manifest survives encode → decode bit-exactly.

use nnq_geom::{Point, Rect};
use nnq_rtree::{hilbert_split, PartitionManifest, PartitionMeta, RecordId};
use proptest::prelude::*;

/// A real manifest: `n` points split into `p` partitions (empty tails
/// when `p > n`, whose MBRs carry infinite coordinates).
fn split_manifest(coords: &[(u32, u32)], p: usize) -> PartitionManifest<2> {
    let items = coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            let pt = Point::new([f64::from(x) * 0.37, f64::from(y) * 1.91]);
            (Rect::from_point(pt), RecordId(i as u64))
        })
        .collect();
    hilbert_split(items, p).1
}

#[test]
fn oversized_partition_count_is_an_error_not_an_allocation() {
    let text =
        "nnq-partition-manifest v1\ndims 2\npartitions 18446744073709551615\nbounds 0 0 0 0\n";
    assert!(PartitionManifest::<2>::decode(text).is_err());
    let text = "nnq-partition-manifest v1\ndims 2\npartitions 100000000000\nbounds 0 0 0 0\n";
    assert!(PartitionManifest::<2>::decode(text).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn decode_arbitrary_text_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        header in any::<bool>(),
    ) {
        let mut text = String::new();
        if header {
            // Get past the header check so the body parser sees the noise.
            text.push_str("nnq-partition-manifest v1\ndims 2\n");
        }
        text.push_str(&String::from_utf8_lossy(&bytes));
        let _ = PartitionManifest::<2>::decode(&text);
        let _ = PartitionManifest::<3>::decode(&text);
    }

    #[test]
    fn decode_mutated_manifests_never_panics(
        coords in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        p in 1usize..9,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..4), 1..6),
    ) {
        let mut text = split_manifest(&coords, p).encode().into_bytes();
        for (at, byte, kind) in edits {
            let at = at % (text.len() + 1);
            match kind {
                // Overwrite with a digit: numbers change, structure stays.
                0 if at < text.len() => text[at] = b'0' + byte % 10,
                // Overwrite with anything.
                1 if at < text.len() => text[at] = byte,
                // Delete.
                2 if at < text.len() => {
                    text.remove(at);
                }
                // Insert.
                _ => text.insert(at, byte),
            }
        }
        let text = String::from_utf8_lossy(&text);
        let _ = PartitionManifest::<2>::decode(&text);
    }

    #[test]
    fn decode_inflated_partition_counts_never_panics(
        coords in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..20),
        p in 1usize..5,
        claimed in any::<u64>(),
    ) {
        let text = split_manifest(&coords, p).encode();
        let inflated: String = text
            .lines()
            .map(|line| {
                if line.starts_with("partitions ") {
                    format!("partitions {claimed}\n")
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        let decoded = PartitionManifest::<2>::decode(&inflated);
        if claimed > p as u64 {
            prop_assert!(decoded.is_err(), "claimed {} parts but only {} present", claimed, p);
        }
    }

    #[test]
    fn split_manifests_roundtrip_bit_exactly(
        coords in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        p in 1usize..12,
    ) {
        let manifest = split_manifest(&coords, p);
        let text = manifest.encode();
        let decoded = PartitionManifest::<2>::decode(&text).unwrap();
        prop_assert_eq!(&decoded, &manifest);
        prop_assert_eq!(decoded.encode(), text);
    }

    #[test]
    fn arbitrary_field_values_roundtrip_bit_exactly(
        parts in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), proptest::array::uniform4(any::<i32>())),
            0..10,
        ),
        bounds in proptest::array::uniform4(any::<i32>()),
    ) {
        let rect = |c: [i32; 4]| {
            Rect::new(
                Point::new([f64::from(c[0]) / 7.0, f64::from(c[1]) * 3.5]),
                Point::new([f64::from(c[2]) / 7.0, f64::from(c[3]) * 3.5]),
            )
        };
        let manifest = PartitionManifest {
            bounds: rect(bounds),
            parts: parts
                .into_iter()
                .map(|(key_lo, key_hi, count, c)| PartitionMeta {
                    key_lo,
                    key_hi,
                    count,
                    mbr: rect(c),
                })
                .collect(),
        };
        let text = manifest.encode();
        let decoded = PartitionManifest::<2>::decode(&text).unwrap();
        prop_assert_eq!(&decoded, &manifest);
        prop_assert_eq!(decoded.encode(), text);
    }
}
