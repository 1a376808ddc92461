//! Streaming job-log reader: CSV or JSON-lines, one record per line.
//!
//! The schema matches the Frontier jobs2024 shape: `project, submit_time,
//! nodes, walltime[, ckpt_bytes]` with times in seconds and volumes in
//! bytes. CSV files carry a header naming the columns (any order, extra
//! columns ignored); JSON-lines files hold one flat object per line
//! (unknown keys ignored). Blank lines and `#` comments are skipped in
//! both formats. The reader holds one line at a time — memory is O(line),
//! never O(log).

use super::{JobSource, TraceError, TraceJob};
use coopckpt_des::{Duration, Time};
use coopckpt_model::Bytes;
use std::fs::File;
use std::io::{BufRead, BufReader};

/// Column positions resolved from a CSV header.
#[derive(Debug, Clone)]
struct Columns {
    project: usize,
    submit: usize,
    nodes: usize,
    walltime: usize,
    ckpt: Option<usize>,
}

#[derive(Debug)]
enum Format {
    Csv(Columns),
    JsonLines,
}

/// A lazy line-by-line reader over a job-log file.
#[derive(Debug)]
pub struct TraceReader {
    path: String,
    lines: std::io::Lines<BufReader<File>>,
    line_no: usize,
    format: Format,
    /// First record line, pre-read during format detection (JSON-lines
    /// has no header, so the probe line is itself a record).
    pending: Option<(usize, String)>,
    /// Submit order is part of the [`JobSource`] contract; enforce it here
    /// so downstream code can rely on it.
    last_submit: Time,
    failed: bool,
}

impl TraceReader {
    /// Opens `path`, detects the format from the first content line
    /// (`{` ⇒ JSON-lines, otherwise a CSV header), and positions the
    /// reader at the first record.
    pub fn open(path: &str) -> Result<TraceReader, TraceError> {
        let file = File::open(path)
            .map_err(|e| TraceError::new(path, 0, format!("cannot open trace: {e}")))?;
        let mut lines = BufReader::new(file).lines();
        let mut line_no = 0usize;
        let probe = loop {
            let line = match lines.next() {
                None => return Err(TraceError::new(path, 0, "empty trace file")),
                Some(line) => line
                    .map_err(|e| TraceError::new(path, line_no + 1, format!("read error: {e}")))?,
            };
            line_no += 1;
            let trimmed = line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                break (line_no, trimmed.to_string());
            }
        };
        let (format, pending) = if probe.1.starts_with('{') {
            (Format::JsonLines, Some(probe))
        } else {
            (Format::Csv(parse_header(path, probe.0, &probe.1)?), None)
        };
        Ok(TraceReader {
            path: path.to_string(),
            lines,
            line_no,
            format,
            pending,
            last_submit: Time::ZERO,
            failed: false,
        })
    }

    fn next_content_line(&mut self) -> Option<Result<(usize, String), TraceError>> {
        if let Some(pending) = self.pending.take() {
            return Some(Ok(pending));
        }
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => {
                    return Some(Err(TraceError::new(
                        &self.path,
                        self.line_no + 1,
                        format!("read error: {e}"),
                    )))
                }
            };
            self.line_no += 1;
            let trimmed = line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                return Some(Ok((self.line_no, trimmed.to_string())));
            }
        }
    }

    fn parse_record(&self, line_no: usize, line: &str) -> Result<TraceJob, TraceError> {
        let fields = match &self.format {
            Format::Csv(cols) => parse_csv_record(&self.path, line_no, line, cols)?,
            Format::JsonLines => parse_json_record(&self.path, line_no, line)?,
        };
        Ok(fields)
    }
}

impl JobSource for TraceReader {
    fn next_job(&mut self) -> Option<Result<TraceJob, TraceError>> {
        if self.failed {
            return None;
        }
        let (line_no, line) = match self.next_content_line()? {
            Ok(v) => v,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        let job = match self.parse_record(line_no, &line) {
            Ok(job) => job,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        if let Err(message) = super::check_submit(job.submit, self.last_submit) {
            self.failed = true;
            return Some(Err(TraceError::new(&self.path, line_no, message)));
        }
        self.last_submit = job.submit;
        Some(Ok(job))
    }
}

fn parse_header(path: &str, line_no: usize, header: &str) -> Result<Columns, TraceError> {
    let names: Vec<String> = header
        .split(',')
        .map(|c| c.trim().to_ascii_lowercase())
        .collect();
    let find = |name: &str| names.iter().position(|c| c == name);
    let missing = |name: &str| {
        TraceError::new(
            path,
            line_no,
            format!(
                "CSV header is missing the '{name}' column \
                 (expected project, submit_time, nodes, walltime[, ckpt_bytes])"
            ),
        )
    };
    Ok(Columns {
        project: find("project").ok_or_else(|| missing("project"))?,
        submit: find("submit_time").ok_or_else(|| missing("submit_time"))?,
        nodes: find("nodes").ok_or_else(|| missing("nodes"))?,
        walltime: find("walltime").ok_or_else(|| missing("walltime"))?,
        ckpt: find("ckpt_bytes"),
    })
}

fn parse_csv_record(
    path: &str,
    line_no: usize,
    line: &str,
    cols: &Columns,
) -> Result<TraceJob, TraceError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    let get = |idx: usize, what: &str| {
        fields
            .get(idx)
            .copied()
            .filter(|f| !f.is_empty())
            .ok_or_else(|| TraceError::new(path, line_no, format!("missing '{what}' field")))
    };
    let number = |idx: usize, what: &str| -> Result<f64, TraceError> {
        let raw = get(idx, what)?;
        raw.parse::<f64>()
            .map_err(|_| TraceError::new(path, line_no, format!("bad {what} '{raw}'")))
    };
    let project = get(cols.project, "project")?.to_string();
    let submit = Time::from_secs(number(cols.submit, "submit_time")?);
    let nodes_raw = get(cols.nodes, "nodes")?;
    let nodes: usize = nodes_raw
        .parse()
        .map_err(|_| TraceError::new(path, line_no, format!("bad nodes '{nodes_raw}'")))?;
    let walltime = Duration::from_secs(number(cols.walltime, "walltime")?);
    let ckpt_bytes = match cols.ckpt {
        Some(idx) => match fields.get(idx).copied().map(str::trim) {
            None | Some("") => None,
            Some(raw) => Some(Bytes::new(raw.parse::<f64>().map_err(|_| {
                TraceError::new(path, line_no, format!("bad ckpt_bytes '{raw}'"))
            })?)),
        },
        None => None,
    };
    Ok(TraceJob {
        project,
        submit,
        nodes,
        walltime,
        ckpt_bytes,
        line: line_no,
    })
}

/// A minimal flat-object JSON-lines record parser: string and number
/// values only, which is all the schema needs. Unknown keys are ignored
/// so real scheduler dumps with extra fields stream unmodified.
fn parse_json_record(path: &str, line_no: usize, line: &str) -> Result<TraceJob, TraceError> {
    let err = |msg: String| TraceError::new(path, line_no, msg);
    let mut project: Option<String> = None;
    let mut submit: Option<f64> = None;
    let mut nodes: Option<f64> = None;
    let mut walltime: Option<f64> = None;
    let mut ckpt: Option<f64> = None;

    let chars: Vec<char> = line.chars().collect();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < chars.len() && chars[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, TraceError> {
        if chars.get(*i) != Some(&'"') {
            return Err(TraceError::new(path, line_no, "expected '\"'".to_string()));
        }
        *i += 1;
        let mut s = String::new();
        while let Some(&c) = chars.get(*i) {
            *i += 1;
            match c {
                '"' => return Ok(s),
                '\\' => match chars.get(*i) {
                    Some(&'"') => {
                        s.push('"');
                        *i += 1;
                    }
                    Some(&'\\') => {
                        s.push('\\');
                        *i += 1;
                    }
                    other => {
                        return Err(TraceError::new(
                            path,
                            line_no,
                            format!("unsupported escape {other:?}"),
                        ))
                    }
                },
                c => s.push(c),
            }
        }
        Err(TraceError::new(
            path,
            line_no,
            "unterminated string".to_string(),
        ))
    };
    let parse_number = |i: &mut usize| -> Result<f64, TraceError> {
        let start = *i;
        while let Some(&c) = chars.get(*i) {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                *i += 1;
            } else {
                break;
            }
        }
        let raw: String = chars[start..*i].iter().collect();
        raw.parse::<f64>()
            .map_err(|_| TraceError::new(path, line_no, format!("bad number '{raw}'")))
    };

    skip_ws(&mut i);
    if chars.get(i) != Some(&'{') {
        return Err(err("expected a JSON object".to_string()));
    }
    i += 1;
    loop {
        skip_ws(&mut i);
        if chars.get(i) == Some(&'}') {
            i += 1;
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if chars.get(i) != Some(&':') {
            return Err(err(format!("expected ':' after key '{key}'")));
        }
        i += 1;
        skip_ws(&mut i);
        match chars.get(i) {
            Some(&'"') => {
                let value = parse_string(&mut i)?;
                if key == "project" {
                    project = Some(value);
                }
            }
            Some(_) => {
                let value = parse_number(&mut i)?;
                match key.as_str() {
                    "submit_time" => submit = Some(value),
                    "nodes" => nodes = Some(value),
                    "walltime" => walltime = Some(value),
                    "ckpt_bytes" => ckpt = Some(value),
                    _ => {}
                }
            }
            None => return Err(err("truncated object".to_string())),
        }
        skip_ws(&mut i);
        match chars.get(i) {
            Some(&',') => i += 1,
            Some(&'}') => {
                i += 1;
                break;
            }
            other => return Err(err(format!("expected ',' or '}}', got {other:?}"))),
        }
    }
    skip_ws(&mut i);
    if i != chars.len() {
        return Err(err("trailing content after object".to_string()));
    }

    let nodes = nodes.ok_or_else(|| err("missing 'nodes'".to_string()))?;
    if !(nodes.is_finite() && nodes >= 0.0 && nodes.fract() == 0.0) {
        return Err(err(format!("bad nodes {nodes}")));
    }
    Ok(TraceJob {
        project: project.ok_or_else(|| err("missing 'project'".to_string()))?,
        submit: Time::from_secs(submit.ok_or_else(|| err("missing 'submit_time'".to_string()))?),
        nodes: nodes as usize,
        walltime: Duration::from_secs(
            walltime.ok_or_else(|| err("missing 'walltime'".to_string()))?,
        ),
        ckpt_bytes: ckpt.map(Bytes::new),
        line: line_no,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("coopckpt-trace-{name}-{}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn drain(path: &str) -> Vec<TraceJob> {
        let mut r = TraceReader::open(path).unwrap();
        let mut out = Vec::new();
        while let Some(j) = r.next_job() {
            out.push(j.unwrap());
        }
        out
    }

    #[test]
    fn reads_csv_with_header_in_any_order() {
        let path = write_temp(
            "csv",
            "# a comment\n\
             nodes,project,walltime,submit_time,ckpt_bytes\n\
             128,astro,3600,0,1e12\n\
             \n\
             256,bio,7200,100,\n",
        );
        let jobs = drain(&path);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].project, "astro");
        assert_eq!(jobs[0].nodes, 128);
        assert_eq!(jobs[0].ckpt_bytes, Some(Bytes::new(1e12)));
        assert_eq!(jobs[1].ckpt_bytes, None);
        assert_eq!(jobs[1].submit, Time::from_secs(100.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reads_json_lines_ignoring_unknown_keys() {
        let path = write_temp(
            "jsonl",
            r#"{"project": "astro", "submit_time": 0, "nodes": 128, "walltime": 3600, "partition": "batch"}
{"project": "bio", "submit_time": 50.5, "nodes": 1, "walltime": 60, "ckpt_bytes": 2.5e11}
"#,
        );
        let jobs = drain(&path);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].project, "astro");
        assert_eq!(jobs[0].ckpt_bytes, None);
        assert_eq!(jobs[1].submit, Time::from_secs(50.5));
        assert_eq!(jobs[1].ckpt_bytes, Some(Bytes::new(2.5e11)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_missing_columns_and_bad_fields() {
        let path = write_temp("badhdr", "project,nodes,walltime\na,1,1\n");
        let err = TraceReader::open(&path).unwrap_err();
        assert!(err.message.contains("submit_time"), "{err}");
        std::fs::remove_file(&path).ok();

        let path = write_temp(
            "badfield",
            "project,submit_time,nodes,walltime\nastro,0,many,3600\n",
        );
        let mut r = TraceReader::open(&path).unwrap();
        let err = r.next_job().unwrap().unwrap_err();
        assert!(err.message.contains("bad nodes"), "{err}");
        assert_eq!(err.line, 2);
        assert!(r.next_job().is_none(), "reader stops after an error");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_order_submits() {
        let path = write_temp(
            "order",
            "project,submit_time,nodes,walltime\na,100,1,1\nb,50,1,1\n",
        );
        let mut r = TraceReader::open(&path).unwrap();
        assert!(r.next_job().unwrap().is_ok());
        let err = r.next_job().unwrap().unwrap_err();
        assert!(err.message.contains("nondecreasing"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_error_prints_huge_times_in_exponent_form() {
        let path = write_temp(
            "order-huge",
            "project,submit_time,nodes,walltime\na,1e250,1,1\nb,5,1,1\n",
        );
        let mut r = TraceReader::open(&path).unwrap();
        assert!(r.next_job().unwrap().is_ok());
        let err = r.next_job().unwrap().unwrap_err();
        assert!(err.message.len() < 200, "{}", err.message);
        assert!(err.message.contains("1e250"), "{}", err.message);
        assert!(err.message.contains("5e0"), "{}", err.message);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = TraceReader::open("/nonexistent/trace.csv").unwrap_err();
        assert!(err.message.contains("cannot open"), "{err}");
    }
}
