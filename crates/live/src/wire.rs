//! Line-protocol front-end over a [`QueryRunner`].
//!
//! One command per line, one `ok`/`err` reply (possibly multi-line,
//! with a count on the first line so framers know how much to read):
//!
//! ```text
//! -> status
//! <- ok status elems=1024 events=3 open=1 now=1472688000 sources=5/6 \
//!        max_latency=17 checkpoints=2 drained=false
//! -> report
//! <- ok report events=3 prefixes=2 providers=2 users=2 periods=2
//! -> events-since 1
//! <- ok events 2
//! <- event seq=1 emitted_at=1472688000 prefix=10.0.0.1/32 start=... end=...
//! <- event seq=2 ...
//! -> quit
//! <- ok bye
//! ```
//!
//! The protocol is transport-agnostic: [`serve_connection`] runs it
//! over any `BufRead`/`Write` pair (a TCP stream, a Unix socket, an
//! in-memory pipe in tests). Input is untrusted: a line longer than
//! [`MAX_LINE_BYTES`] is answered `err line too long` and one that is not
//! UTF-8 `err not utf-8`, and the connection keeps serving.

use std::io::{self, BufRead, ErrorKind, Read, Write};

use bh_core::SequencedEvent;

use crate::query::QueryRunner;

/// Render one event line for `events-since`.
fn event_line(se: &SequencedEvent) -> String {
    let end = se.event.end.map_or_else(|| "open".to_owned(), |e| e.unix().to_string());
    format!(
        "event seq={} emitted_at={} prefix={} start={} end={} peers={} providers={} latency={}",
        se.seq,
        se.emitted_at.unix(),
        se.event.prefix,
        se.event.start.unix(),
        end,
        se.event.peer_count,
        se.event.providers.len(),
        se.latency().as_secs(),
    )
}

/// Execute one command line and return the full reply (no trailing
/// newline; multi-line replies embed `\n`).
pub fn handle_command(runner: &QueryRunner, line: &str) -> String {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("status") => {
            let s = runner.status();
            format!(
                "ok status elems={} events={} open={} now={} sources={}/{} max_latency={} \
                 checkpoints={} drained={}",
                s.elems,
                s.events_emitted,
                s.open_events,
                s.now.unix(),
                s.sources_ended,
                s.sources_total,
                s.max_latency_seen.as_secs(),
                s.checkpoints,
                s.drained,
            )
        }
        Some("report") => match runner.report() {
            Some(r) => format!(
                "ok report events={} prefixes={} providers={} users={} periods={}",
                r.durations.len(),
                r.blackholed_prefixes.len(),
                r.prefixes_per_provider.len(),
                r.prefixes_per_user.len(),
                r.periods.len(),
            ),
            None => "err no-report-yet".to_owned(),
        },
        Some("events-since") => match parts.next().map(str::parse::<u64>) {
            Some(Ok(since)) => {
                let events = runner.events_since(since);
                let mut reply = format!("ok events {}", events.len());
                for se in &events {
                    reply.push('\n');
                    reply.push_str(&event_line(se));
                }
                reply
            }
            _ => "err usage: events-since <seq>".to_owned(),
        },
        Some(other) => format!("err unknown command: {other}"),
        None => "err empty command".to_owned(),
    }
}

/// The longest command line served, its `\n` (or `\r\n`) excluded. No
/// command comes near it; the cap is what keeps a peer that never sends a
/// newline from growing the line buffer without bound.
pub const MAX_LINE_BYTES: usize = 4096;

/// Serve commands line by line until EOF or `quit`: every line gets
/// exactly one reply, flushed before the next line is read. Only an I/O
/// error of `reader` or `writer` ends the connection early.
pub fn serve_connection<R: BufRead, W: Write>(
    runner: &QueryRunner,
    mut reader: R,
    mut writer: W,
) -> io::Result<()> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_LINE_BYTES as u64 + 2; // room for the `\r\n`
        if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let complete = line.ends_with(b"\n");
        let text = line.strip_suffix(b"\n").unwrap_or(&line);
        let text = text.strip_suffix(b"\r").unwrap_or(text);
        let reply = if text.len() > MAX_LINE_BYTES {
            if !complete {
                skip_line(&mut reader)?;
            }
            "err line too long".to_owned()
        } else {
            match std::str::from_utf8(text) {
                Ok(command) if command.trim() == "quit" => {
                    writeln!(writer, "ok bye")?;
                    return writer.flush();
                }
                Ok(command) => handle_command(runner, command),
                Err(_) => "err not utf-8".to_owned(),
            }
        };
        writeln!(writer, "{reply}")?;
        writer.flush()?;
    }
}

/// Discard input up to and including the next newline, or to EOF.
fn skip_line<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(at) => {
                reader.consume(at + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, RwLock};

    use super::*;
    use crate::query::{write_shared, SharedState};

    #[test]
    fn a_poisoned_lock_still_answers_status() {
        let shared = Arc::new(RwLock::new(SharedState::default()));
        write_shared(&shared).status.elems = 7;
        let poisoner = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let _guard = poisoner.write().expect("not yet poisoned");
            panic!("die holding the write lock");
        })
        .join();
        assert!(died.is_err() && shared.is_poisoned());

        let q = QueryRunner::new(Arc::clone(&shared));
        let reply = handle_command(&q, "status");
        assert!(reply.starts_with("ok status elems=7 "), "{reply}");
        // The write side recovers too: the daemon keeps publishing.
        write_shared(&shared).status.elems = 8;
        assert_eq!(q.status().elems, 8);
    }
}
