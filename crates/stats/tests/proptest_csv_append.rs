//! Property test: [`ftsim_stats::csv::AppendWriter`] torn-tail repair.
//!
//! A writer can die at any byte of its fsynced append stream — mid-row,
//! mid-header, between a row and its newline, or half-way through a
//! multi-byte UTF-8 character. Whatever the truncation point, reopening
//! the file must (a) hand back every complete row exactly as written,
//! (b) never duplicate a row, and (c) cut the torn fragment away so the
//! file holds only whole rows and fresh appends start on a clean
//! boundary. The repair judges prefixes with
//! [`ftsim_stats::csv::is_well_formed`], which must accept exactly the
//! documents [`ftsim_stats::csv::parse`] accepts. An open that resumes
//! past a trusted prefix ([`ftsim_stats::csv::AppendWriter::open_after`])
//! must repair to the same length and hand back the same bytes as one
//! that scans from offset 0, and must fall back to that scan when the
//! prefix's guard bytes do not match.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ftsim_stats::csv::{file_id, is_well_formed, join_row, parse, AppendWriter, TrustedPrefix};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch_file() -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "ftsim-proptest-csv-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    (dir.clone(), dir.join("cells.csv"))
}

const HEADER: &str = "idx,payload,extra";

/// Cell contents that exercise quoting, embedded separators/newlines and
/// multi-byte UTF-8 (2-, 3- and 4-byte sequences).
fn cell_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "plain".to_string(),
        String::new(),
        "a,b".to_string(),
        "say \"hi\"".to_string(),
        "two\nlines".to_string(),
        "café".to_string(),
        "日本語テスト".to_string(),
        "crash😀point".to_string(),
    ])
}

fn rows_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(prop::collection::vec(cell_strategy(), 1..5), 1..6).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            // A unique index cell per row so duplication is observable.
            .map(|(i, cells)| {
                let mut all = vec![i.to_string()];
                all.extend(cells);
                join_row(&all)
            })
            .collect()
    })
}

/// Document fragments covering every byte the CSV grammar reacts to
/// (including doubled quotes and CRLF) and multi-byte UTF-8.
fn fragment_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "x", "", ",", "\"", "\"\"", "\n", "\r", "\r\n", "a,b", "\"q\"", "é", "日本",
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn validator_agrees_with_the_parser(
        fragments in prop::collection::vec(fragment_strategy(), 0..24),
        rows in rows_strategy(),
        kraw in any::<u64>(),
    ) {
        // Random documents, and well-formed ones cut at an arbitrary byte
        // (mid-row, mid-quote or mid-character, as a crash leaves them).
        let random = fragments.concat();
        let mut written = format!("{HEADER}\n");
        for row in &rows {
            written.push_str(row);
            written.push('\n');
        }
        let cut = &written.as_bytes()[..(kraw % (written.len() as u64 + 1)) as usize];
        for doc in [random.as_bytes(), written.as_bytes(), cut] {
            prop_assert_eq!(
                is_well_formed(doc),
                parse(&String::from_utf8_lossy(doc)).is_ok(),
                "disagreement on {:?}",
                String::from_utf8_lossy(doc)
            );
        }
    }

    #[test]
    fn torn_tail_repair_recovers_every_complete_row(
        rows in rows_strategy(),
        kraw in any::<u64>(),
        fresh_cell in cell_strategy(),
    ) {
        // Write the full file the way the daemon does, then truncate it
        // at an arbitrary byte to simulate a crash mid-append.
        let (dir, path) = scratch_file();
        let (mut writer, existing) = AppendWriter::open(&path, HEADER).unwrap();
        prop_assert_eq!(existing.as_str(), "");
        let mut offsets = Vec::new(); // byte offset of each row's end (incl. newline)
        let mut len = HEADER.len() as u64 + 1;
        for row in &rows {
            writer.append_row(row).unwrap();
            len += row.len() as u64 + 1;
            offsets.push(len);
        }
        drop(writer);
        let full = std::fs::read(&path).unwrap();
        prop_assert_eq!(full.len() as u64, len);

        let k = (kraw % (len + 1)) as usize;
        let truncated = &full[..k];
        std::fs::write(&path, truncated).unwrap();

        // The largest prefix of whole lines (header + complete rows)
        // that survived the cut.
        let boundary = if k > HEADER.len() {
            let mut b = HEADER.len() + 1;
            for off in &offsets {
                if *off as usize <= k {
                    b = *off as usize;
                }
            }
            b
        } else {
            0
        };

        let (mut writer, recovered) = AppendWriter::open(&path, HEADER).unwrap();
        // (a) Repair truncates to exactly the surviving whole-row prefix:
        // nothing less (no complete row lost) and nothing more (no torn
        // fragment survives to poison later reads). A cut inside the
        // header recovers nothing and a fresh header is written.
        let intact = std::str::from_utf8(&full[..boundary]).unwrap();
        if boundary == 0 {
            prop_assert!(recovered.is_empty(), "header fragment kept: {recovered:?}");
        } else {
            prop_assert_eq!(
                recovered.as_str(),
                intact,
                "repair must land on the surviving whole-row prefix"
            );
        }
        // (b) No duplication: each row appears exactly once in the
        // recovered text iff it survived whole; a torn row is cut away
        // entirely, never kept as a fragment or a second full copy.
        for (i, row) in rows.iter().enumerate() {
            let whole = format!("\n{row}\n");
            let haystack = format!("\n{recovered}");
            let count = haystack.matches(&whole).count();
            let survived = offsets[i] as usize <= boundary;
            if survived {
                prop_assert_eq!(count, 1, "row {} duplicated or lost", i);
            } else {
                prop_assert_eq!(count, 0, "torn row {} kept by the repair", i);
            }
        }
        // (c) The tail is terminated and fresh appends get their own line.
        prop_assert!(recovered.is_empty() || recovered.ends_with('\n'));
        let fresh = join_row([&(rows.len() + 1).to_string(), &fresh_cell]);
        writer.append_row(&fresh).unwrap();
        drop(writer);
        let final_bytes = std::fs::read(&path).unwrap();
        let tail = format!("\n{fresh}\n");
        prop_assert!(
            final_bytes.ends_with(tail.as_bytes()),
            "fresh row merged into the torn tail"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_trusted_prefix_repairs_like_a_scan_from_the_start(
        rows in rows_strategy(),
        damage in prop::collection::vec(fragment_strategy(), 0..4),
        draw in any::<u64>(),
        kraw in any::<u64>(),
        guard_len in 1usize..64,
    ) {
        // A written document, damaged at a row boundary (a torn fragment
        // a peer's rows were appended behind), then cut at any byte.
        let mut written = format!("{HEADER}\n");
        let mut row_ends = Vec::new();
        for row in &rows {
            written.push_str(row);
            written.push('\n');
            row_ends.push(written.len());
        }
        let at = row_ends[(draw % row_ends.len() as u64) as usize];
        written.insert_str(at, &damage.concat());
        let doc = &written.as_bytes()[..(kraw % (written.len() as u64 + 1)) as usize];

        let (dir, path) = scratch_file();
        std::fs::write(&path, doc).unwrap();
        let (_, full) = AppendWriter::open_after(&path, HEADER, None).unwrap();
        prop_assert_eq!(full.offset, 0);
        // The repaired file: the bytes the open returned, or a fresh
        // header when nothing survived.
        let repaired = std::fs::read(&path).unwrap();
        prop_assert!(full.bytes == repaired || full.bytes.is_empty());

        let open_trusting = |len: usize, guard: &[u8]| {
            std::fs::write(&path, doc).unwrap();
            let file = file_id(&std::fs::metadata(&path).unwrap());
            let trusted = TrustedPrefix { len, file, guard: guard.to_vec() };
            let (_, opened) = AppendWriter::open_after(&path, HEADER, Some(trusted)).unwrap();
            (opened, std::fs::read(&path).unwrap())
        };
        // Every clean row boundary: the prefix ends in a row-ending
        // newline and the grammar accepts it.
        let boundaries: Vec<usize> = (1..=doc.len())
            .filter(|&p| doc[p - 1] == b'\n' && is_well_formed(&doc[..p]))
            .collect();
        for &p in &boundaries {
            let guard = &doc[p.saturating_sub(guard_len)..p];
            let (opened, file) = open_trusting(p, guard);
            prop_assert_eq!(&file, &repaired, "repair past {} differs", p);
            prop_assert_eq!(opened.offset, p - guard.len());
            prop_assert_eq!(&opened.bytes[..], &full.bytes[opened.offset..]);
            prop_assert_eq!(opened.read, doc.len() - opened.offset);

            // Guard bytes that are not the file's: a scan from offset 0.
            let mut wrong = guard.to_vec();
            wrong[0] ^= 0x20;
            let (opened, file) = open_trusting(p, &wrong);
            prop_assert_eq!(&file, &repaired);
            prop_assert_eq!(opened.offset, 0);
            prop_assert_eq!(&opened.bytes, &full.bytes);
        }
        // A prefix longer than the file: a scan from offset 0.
        let (opened, file) = open_trusting(doc.len() + 1, b"\n");
        prop_assert_eq!((opened.offset, &file), (0, &repaired));
        std::fs::remove_dir_all(&dir).ok();
    }
}
