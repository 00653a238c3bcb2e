//! RFC-4180-style CSV writing and parsing.
//!
//! The experiment harness exports run records as CSV without external
//! dependencies; this module provides quoting-aware escaping, row
//! joining, a parser that inverts them exactly (so record → CSV →
//! record round trips are testable), and an append-safe incremental
//! writer ([`AppendWriter`]) used by the `ftsimd` sweep daemon to stream
//! results to disk so a crashed run can resume from whatever rows made
//! it out.

use std::fs::{File, Metadata, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::Path;

/// Appends `cell` to `out`, quoted when it contains a comma, quote or
/// newline.
pub fn push_escaped(out: &mut String, cell: &str) {
    if !cell.contains(['"', ',', '\n', '\r']) {
        out.push_str(cell);
        return;
    }
    out.push('"');
    for (i, part) in cell.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Joins cells into one CSV row (no trailing newline).
pub fn join_row<I, S>(cells: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = String::new();
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, cell.as_ref());
    }
    out
}

/// CSV parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSV error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Parses a CSV document into rows of cells, honouring quoted cells
/// (including embedded newlines, commas and doubled quotes).
///
/// # Errors
///
/// [`CsvError`] on an unterminated quoted cell or a stray quote.
pub fn parse(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    // Whether the current (possibly empty) cell has been started; used to
    // avoid emitting a phantom row for a trailing newline.
    let mut in_row = false;

    while let Some(c) = chars.next() {
        match c {
            // A quote starts a quoted cell only at the very beginning of
            // the cell.
            '"' if cell.is_empty() => {
                // Quoted cell: consume until the closing quote.
                in_row = true;
                loop {
                    match chars.next() {
                        None => {
                            return Err(CsvError {
                                line,
                                message: "unterminated quoted cell".to_string(),
                            })
                        }
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                cell.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => {
                            if c == '\n' {
                                line += 1;
                            }
                            cell.push(c);
                        }
                    }
                }
                // RFC 4180: a closing quote must be followed by a
                // delimiter or end the document; silently merging
                // trailing characters would hide corruption.
                if !matches!(chars.peek(), None | Some(',' | '\n' | '\r')) {
                    return Err(CsvError {
                        line,
                        message: "unexpected character after closing quote".to_string(),
                    });
                }
            }
            '"' => {
                return Err(CsvError {
                    line,
                    message: "quote inside unquoted cell".to_string(),
                })
            }
            ',' => {
                in_row = true;
                row.push(std::mem::take(&mut cell));
            }
            '\r' => {
                // Swallow the CR of a CRLF; a bare CR ends the row too.
                if chars.peek() == Some(&'\n') {
                    chars.next();
                }
                line += 1;
                row.push(std::mem::take(&mut cell));
                rows.push(std::mem::take(&mut row));
                in_row = false;
            }
            '\n' => {
                line += 1;
                row.push(std::mem::take(&mut cell));
                rows.push(std::mem::take(&mut row));
                in_row = false;
            }
            c => {
                in_row = true;
                cell.push(c);
            }
        }
    }
    if in_row || !cell.is_empty() || !row.is_empty() {
        row.push(cell);
        rows.push(row);
    }
    Ok(rows)
}

/// An append-only CSV writer built for crash safety: every row is
/// written as **one** `write` call (row + newline), flushed, and synced
/// to the device before [`AppendWriter::append_row`] returns. A process
/// killed between rows therefore loses at most the row in flight, and a
/// reader tolerant of one partial trailing line (the harness's
/// `from_csv_tolerant`) recovers everything else.
///
/// Opening an existing file first repairs any torn tail — the signature
/// of a writer that died mid-row — by **truncating** back to the largest
/// newline-terminated prefix that parses as CSV. Truncation (rather than
/// sealing the fragment with a newline) matters: a sealed fragment would
/// become an *interior* garbage line once fresh rows land after it, and
/// tail-tolerant readers like the harness's `from_csv_tolerant` — which
/// trim from the end until the document parses — would then silently
/// drop every row behind it. Cutting the fragment keeps the file
/// all-whole-rows at every open; the row it carried is simply re-run.
/// A tail torn mid-way through a multi-byte UTF-8 character or inside a
/// quoted multi-line cell is cut the same way, back past the damage.
///
/// Rows are written either synced one by one ([`AppendWriter::append_row`])
/// or unsynced ([`AppendWriter::write_row`]) and made durable together by
/// one [`AppendWriter::sync`] (group commit).
///
/// Every filesystem operation routes through the
/// [`ftsim_chaos`](ftsim_chaos::IoEnv) failpoint layer at sites
/// `csv.open` (directory creation, open, read-back, tail repair) and
/// `csv.append` (each row write), and a group commit's sync at the site
/// its caller names, so crash-matrix and torn-write tests can target the
/// exact primitive.
#[derive(Debug)]
pub struct AppendWriter {
    file: File,
}

/// Failpoint site covering [`AppendWriter::open`].
pub const FP_CSV_OPEN: &str = "csv.open";

/// Failpoint site covering each [`AppendWriter::append_row`].
pub const FP_CSV_APPEND: &str = "csv.append";

/// A prefix of an append-only file that the caller has already read and
/// vouches for, so that [`AppendWriter::open_after`] scans only what lies
/// past it. The caller's promise: the prefix ends just past a row-ending
/// newline and [`is_well_formed`] accepts it. The repair's scan is in its
/// start state at such a boundary, so the repair that resumes there cuts
/// the file exactly where a scan from offset 0 would.
#[derive(Debug, Clone)]
pub struct TrustedPrefix {
    /// Byte length of the prefix.
    pub len: usize,
    /// The file's identity ([`file_id`]) when the prefix was read.
    pub file: Option<(u64, u64)>,
    /// The prefix's last bytes, which the open re-reads and compares.
    pub guard: Vec<u8>,
}

/// What an [`AppendWriter`] open found in its file.
#[derive(Debug)]
pub struct Opened {
    /// File offset of `bytes[0]`: 0 after a scan from the start, the
    /// start of the trusted prefix's guard bytes otherwise.
    pub offset: usize,
    /// The file's content from `offset` on, after the repair.
    pub bytes: Vec<u8>,
    /// Bytes read from the file, those the repair cut away and those of
    /// a failed guard check included.
    pub read: usize,
    /// The opened file's identity ([`file_id`]).
    pub file: Option<(u64, u64)>,
}

/// A file's identity on its filesystem (device, inode), where the
/// platform has one.
pub fn file_id(meta: &Metadata) -> Option<(u64, u64)> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt as _;
        Some((meta.dev(), meta.ino()))
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        None
    }
}

/// The bytes of `file` from `offset` to its end.
fn read_from(file: &mut File, offset: usize, len: u64) -> std::io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(offset as u64))?;
    let mut bytes = Vec::with_capacity(len.saturating_sub(offset as u64) as usize);
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

impl AppendWriter {
    /// Opens `path` for appending, creating parent directories and the
    /// file as needed, and returns the writer together with the file's
    /// pre-existing contents (so callers resuming a run read prior rows
    /// with the same open, not a second racy one). A new or empty file
    /// gets `header` (plus a newline) written first; a torn trailing
    /// fragment is truncated away as described on [`AppendWriter`].
    ///
    /// # Errors
    ///
    /// Any I/O error creating directories, opening, reading or repairing
    /// the file — including faults injected at the `csv.open` site.
    pub fn open(path: impl AsRef<Path>, header: &str) -> std::io::Result<(Self, String)> {
        let (writer, opened) = Self::open_after(path, header, None)?;
        // Decode lossily as a last line of defence; after the repair the
        // surviving prefix is whole rows, which the writer only ever
        // produced from valid UTF-8.
        Ok((writer, String::from_utf8_lossy(&opened.bytes).into_owned()))
    }

    /// As [`AppendWriter::open`], but reads and repairs only what lies
    /// past `trusted`. The open re-reads the prefix's guard bytes on the
    /// handle it opened; should they differ, the file be shorter than the
    /// prefix or be another file, it reads and scans from offset 0
    /// instead. `None` always scans from offset 0.
    ///
    /// # Errors
    ///
    /// As [`AppendWriter::open`].
    pub fn open_after(
        path: impl AsRef<Path>,
        header: &str,
        trusted: Option<TrustedPrefix>,
    ) -> std::io::Result<(Self, Opened)> {
        let env = ftsim_chaos::io();
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                env.create_dir_all(FP_CSV_OPEN, dir)?;
            }
        }
        env.gate(FP_CSV_OPEN)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let meta = file.metadata()?;
        let mut read = 0;
        let mut resumed = None;
        if let Some(t) = trusted.filter(|t| {
            t.guard.len() <= t.len && t.len as u64 <= meta.len() && t.file == file_id(&meta)
        }) {
            let offset = t.len - t.guard.len();
            let bytes = read_from(&mut file, offset, meta.len())?;
            read += bytes.len();
            if bytes.starts_with(&t.guard) {
                resumed = Some((offset, bytes, t.guard.len()));
            }
        }
        let (offset, mut bytes, scan_from) = match resumed {
            Some(resumed) => resumed,
            None => {
                let bytes = read_from(&mut file, 0, meta.len())?;
                read += bytes.len();
                (0, bytes, 0)
            }
        };
        let keep = scan_from + repaired_len(&bytes[scan_from..]);
        if keep < bytes.len() {
            file.set_len((offset + keep) as u64)?;
            bytes.truncate(keep);
        }
        let mut writer = Self { file };
        if offset + bytes.len() == 0 {
            writer.write_line(header)?;
        }
        Ok((
            writer,
            Opened {
                offset,
                bytes,
                read,
                file: file_id(&meta),
            },
        ))
    }

    /// Appends one row (no trailing newline in `row`; quoting is the
    /// caller's business, e.g. via [`join_row`]) and syncs it to the
    /// device before returning.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or syncing — including faults injected at
    /// the `csv.append` site (an injected torn write persists a prefix of
    /// the row, exactly like a crash mid-append).
    pub fn append_row(&mut self, row: &str) -> std::io::Result<()> {
        self.write_line(row)
    }

    /// Appends one row as [`AppendWriter::append_row`] does, but without
    /// syncing it: the row reaches the page cache, so it survives the
    /// writer's death but not the machine's until the next
    /// [`AppendWriter::sync`].
    ///
    /// # Errors
    ///
    /// As [`AppendWriter::append_row`], syncing aside.
    pub fn write_row(&mut self, row: &str) -> std::io::Result<()> {
        ftsim_chaos::io().append(FP_CSV_APPEND, &mut self.file, &line_bytes(row))
    }

    /// Makes every row written so far durable: one sync for the rows of
    /// several [`AppendWriter::write_row`] calls. The failpoint layer
    /// gates it at `site`.
    ///
    /// # Errors
    ///
    /// Any I/O error syncing, including one injected at `site`.
    pub fn sync(&self, site: &str) -> std::io::Result<()> {
        ftsim_chaos::io().sync(site, &self.file)
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        // The sync bounds the loss window to the row in flight.
        ftsim_chaos::io().append_sync(FP_CSV_APPEND, &mut self.file, &line_bytes(line))
    }
}

/// `line` and its newline, for one write call: on a local filesystem an
/// append of a row's size lands atomically in practice.
fn line_bytes(line: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    buf
}

/// Whether `text` is a CSV document [`parse`] accepts — the same
/// accept/reject decision (unterminated quoted cell, quote inside an
/// unquoted cell, junk after a closing quote), reached without building
/// a single cell. Bytes are judged as [`parse`] judges the lossy UTF-8
/// decoding of `text`: every byte the grammar reacts to is ASCII, which
/// lossy decoding never alters.
pub fn is_well_formed(text: &[u8]) -> bool {
    scan(text).0
}

/// Walks `raw` under [`parse`]'s grammar without allocating. Returns
/// whether the whole document is accepted, and the end of the last
/// row-ending `\n` (outside any quoted cell) before the first error —
/// 0 when there is none.
fn scan(raw: &[u8]) -> (bool, usize) {
    let mut boundary = 0;
    // Whether the current cell has no characters yet: a quote opens a
    // quoted cell only there.
    let mut cell_empty = true;
    let mut i = 0;
    while i < raw.len() {
        match raw[i] {
            b'"' if cell_empty => {
                i += 1;
                loop {
                    match raw.get(i) {
                        None => return (false, boundary),
                        Some(b'"') if raw.get(i + 1) == Some(&b'"') => i += 2,
                        Some(b'"') => break,
                        Some(_) => i += 1,
                    }
                }
                if !matches!(raw.get(i + 1), None | Some(b',' | b'\n' | b'\r')) {
                    return (false, boundary);
                }
            }
            b'"' => return (false, boundary),
            b',' | b'\r' => cell_empty = true,
            b'\n' => {
                cell_empty = true;
                boundary = i + 1;
            }
            _ => cell_empty = false,
        }
        i += 1;
    }
    (true, boundary)
}

/// Byte length of the largest newline-terminated, CSV-parseable prefix
/// of `raw` — the repair boundary used by [`AppendWriter::open`].
///
/// A crash leaves at most a strict prefix of one `row\n` append after a
/// well-formed document, so trimming trailing lines until the remainder
/// both ends in a newline and parses (a fragment cut just past an
/// embedded newline of a quoted multi-line cell satisfies the first test
/// but not the second) always lands back on the pre-append row boundary.
///
/// One [`scan`] finds it: a prefix ending in `\n` parses exactly when
/// that newline ends a row (it lies outside every quoted cell) and no
/// error comes before it, since every error the grammar reports is
/// decided by bytes at or before the newline that follows it.
fn repaired_len(raw: &[u8]) -> usize {
    scan(raw).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_cells_untouched() {
        assert_eq!(join_row(["gcc"]), "gcc");
        assert_eq!(join_row(["a", "b", "c"]), "a,b,c");
    }

    #[test]
    fn special_cells_quoted() {
        assert_eq!(join_row(["a,b"]), "\"a,b\"");
        assert_eq!(join_row(["say \"hi\""]), "\"say \"\"hi\"\"\"");
        assert_eq!(join_row(["two\nlines"]), "\"two\nlines\"");
    }

    #[test]
    fn parse_inverts_join() {
        let cells = vec![
            "plain".to_string(),
            "with,comma".to_string(),
            "with \"quotes\"".to_string(),
            "multi\nline".to_string(),
            String::new(),
        ];
        let row = join_row(&cells);
        let parsed = parse(&row).unwrap();
        assert_eq!(parsed, vec![cells]);
    }

    #[test]
    fn multiple_rows_and_trailing_newline() {
        let text = "a,b\nc,d\n";
        assert_eq!(
            parse(text).unwrap(),
            vec![
                vec!["a".to_string(), "b".to_string()],
                vec!["c".to_string(), "d".to_string()],
            ]
        );
    }

    #[test]
    fn crlf_rows() {
        let text = "a,b\r\nc,d\r\n";
        assert_eq!(parse(text).unwrap().len(), 2);
    }

    #[test]
    fn empty_cells_preserved() {
        assert_eq!(
            parse("a,,c\n").unwrap(),
            vec![vec!["a".to_string(), String::new(), "c".to_string()]]
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("\"unterminated").is_err());
        let err = parse("bad\"quote\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        // Trailing characters after a closing quote are corruption, not
        // cell content.
        assert!(parse("\"SS-2\"x,1\n").is_err());
    }

    /// The repair boundary as it was first defined: trim trailing lines
    /// until the rest ends in a newline and [`parse`] accepts it.
    fn repaired_len_by_parsing(raw: &[u8]) -> usize {
        let mut end = raw.len();
        loop {
            if end == 0 {
                return 0;
            }
            if raw[end - 1] == b'\n' && parse(&String::from_utf8_lossy(&raw[..end])).is_ok() {
                return end;
            }
            end = match raw[..end - 1].iter().rposition(|&b| b == b'\n') {
                Some(nl) => nl + 1,
                None => 0,
            };
        }
    }

    #[test]
    fn scan_agrees_with_parse_and_the_trimming_repair() {
        // Every byte the grammar reacts to, plus a lone UTF-8 lead byte.
        const ALPHABET: &[&[u8]] = &[
            b"a",
            b"7",
            b",",
            b"\"",
            b"\"\"",
            b"\n",
            b"\r",
            b"\r\n",
            b"\xC3",
            b"\xC3\xA9",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let len = next() % 24;
            let doc: Vec<u8> = (0..len)
                .flat_map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize].to_vec())
                .collect();
            assert_eq!(
                is_well_formed(&doc),
                parse(&String::from_utf8_lossy(&doc)).is_ok(),
                "{doc:?}"
            );
            assert_eq!(repaired_len(&doc), repaired_len_by_parsing(&doc), "{doc:?}");
        }
    }

    #[test]
    fn empty_document() {
        assert_eq!(parse("").unwrap(), Vec::<Vec<String>>::new());
    }

    #[test]
    fn append_writer_creates_with_header_and_appends() {
        let dir = std::env::temp_dir().join(format!("ftsim-csv-{}", std::process::id()));
        let path = dir.join("nested/cells.csv");
        let (mut w, existing) = AppendWriter::open(&path, "a,b").unwrap();
        assert_eq!(existing, "");
        w.append_row("1,2").unwrap();
        drop(w);

        // Reopening reads prior content back and does not rewrite the
        // header.
        let (mut w, existing) = AppendWriter::open(&path, "a,b").unwrap();
        assert_eq!(existing, "a,b\n1,2\n");
        w.append_row("3,4").unwrap();
        drop(w);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_writer_repairs_torn_trailing_line() {
        let dir = std::env::temp_dir().join(format!("ftsim-csv-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.csv");
        // Simulate a writer killed mid-row: no trailing newline.
        std::fs::write(&path, "a,b\n1,2\n3,").unwrap();
        let (mut w, existing) = AppendWriter::open(&path, "a,b").unwrap();
        assert_eq!(existing, "a,b\n1,2\n", "torn line must be cut away");
        w.append_row("5,6").unwrap();
        drop(w);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "a,b\n1,2\n5,6\n",
            "the file must hold only whole rows after repair"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_writer_cuts_fragment_torn_inside_a_quoted_cell() {
        let dir = std::env::temp_dir().join(format!("ftsim-csv-quoted-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.csv");
        // A row with an embedded newline, torn just after that newline:
        // the tail *ends* with '\n' but is still a fragment, which only
        // the CSV-aware repair detects (an unterminated quoted cell).
        std::fs::write(&path, "a,b\n1,2\n3,\"two\n").unwrap();
        let (mut w, existing) = AppendWriter::open(&path, "a,b").unwrap();
        assert_eq!(existing, "a,b\n1,2\n", "quoted fragment must be cut away");
        w.append_row("5,6").unwrap();
        drop(w);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n5,6\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_writer_survives_tail_torn_mid_utf8() {
        let dir = std::env::temp_dir().join(format!("ftsim-csv-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.csv");
        // "é" is 0xC3 0xA9; keep only the first byte — a writer killed
        // mid-way through a multi-byte character.
        let mut bytes = b"a,b\n1,2\ncaf".to_vec();
        bytes.push(0xC3);
        std::fs::write(&path, &bytes).unwrap();
        let (mut w, existing) = AppendWriter::open(&path, "a,b").unwrap();
        assert_eq!(existing, "a,b\n1,2\n", "torn multi-byte tail cut away");
        w.append_row("5,6").unwrap();
        drop(w);
        let repaired = std::fs::read(&path).unwrap();
        assert!(repaired.ends_with(b"\n5,6\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
