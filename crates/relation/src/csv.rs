//! CSV reading and writing with type inference.
//!
//! [`read_csv`] reads the whole document into one buffer, checks UTF-8
//! once, and splits records and fields in a single quote-aware pass.
//! Fields are `&str` spans borrowed from that buffer; only a quoted field
//! is copied (to undo its doubled quotes). Quoting is RFC-4180 style
//! (`"..."` with doubled inner quotes), and a quoted field may span lines,
//! so everything [`write_csv`] emits reads back. Each column is then typed
//! as the narrowest of Int64 → Float64 → Utf8 that holds all its non-empty
//! cells (Bool when every cell is a boolean word) and parsed straight into
//! its typed buffer; empty fields are nulls. Small by design: enough to
//! load the demo datasets (Montgomery payroll, billionaires list) and
//! round-trip our own output.

use crate::column::{Column, StrDict};
use crate::error::{RelationError, Result};
use crate::schema::{Field, Schema};
use crate::table::Table;
use std::borrow::Cow;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The UTF-8 byte-order mark. Excel and friends prepend one; left in
/// place it would become part of the first header name, and target
/// resolution (`column_by_name`) would fail for it.
const BOM: &str = "\u{feff}";

fn parse_error(line: usize, message: impl Into<String>) -> RelationError {
    RelationError::CsvParse {
        line,
        message: message.into(),
    }
}

/// Splits a document into records of fields borrowed from it.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based physical line of `pos`.
    line: usize,
}

impl<'a> Scanner<'a> {
    /// Scan one record (empty at the end of input) and append its fields
    /// to `out`. Returns the physical line the record starts on, used for
    /// every error about it, and whether the record is blank.
    fn record(&mut self, out: &mut Vec<Cow<'a, str>>) -> Result<(usize, bool)> {
        let text = self.text;
        let bytes = text.as_bytes();
        let (start, line) = (self.pos, self.line);
        // Start of the field's unquoted text still to be taken; after a
        // quoted section it is the byte past the closing quote.
        let mut from = start;
        // The field's text so far, once it has held a quoted section.
        let mut quoted: Option<String> = None;
        let mut i = start;
        let terminated = loop {
            let Some(&b) = bytes.get(i) else {
                break false;
            };
            match b {
                b',' => {
                    out.push(field(text, from, i, quoted.take()));
                    i += 1;
                    from = i;
                }
                b'\n' => break true,
                b'"' => {
                    // A quote opens a quoted section only at the start of
                    // a field (a field's quoted section is never followed
                    // by `"`: that would be a doubled quote inside it).
                    if i != from {
                        return Err(parse_error(line, "unexpected quote mid-field"));
                    }
                    let mut s = String::new();
                    i += 1;
                    loop {
                        let Some(len) = bytes[i..].iter().position(|&c| c == b'"') else {
                            return Err(parse_error(line, "unterminated quoted field"));
                        };
                        let chunk = &text[i..i + len];
                        self.line += chunk.bytes().filter(|&c| c == b'\n').count();
                        s.push_str(chunk);
                        i += len + 1;
                        if bytes.get(i) != Some(&b'"') {
                            break;
                        }
                        s.push('"');
                        i += 1;
                    }
                    quoted = Some(s);
                    from = i;
                }
                _ => i += 1,
            }
        };
        // Drop the line ending (`\n` or `\r\n`) plus one stray `\r`: a
        // Windows-exported last record without a final newline keeps its
        // `\r`, which would otherwise corrupt every value parsed from it.
        // Stripped bytes always lie in the last field's unquoted tail.
        let mut end = i;
        for _ in 0..1 + usize::from(terminated) {
            if end > from && bytes[end - 1] == b'\r' {
                end -= 1;
            }
        }
        out.push(field(text, from, end, quoted));
        if terminated {
            self.pos = i + 1;
            self.line += 1;
        } else {
            self.pos = i;
        }
        Ok((line, end == start))
    }
}

/// A field's value: its unquoted text `text[from..end]`, appended to the
/// text of its quoted section if it had one.
fn field(text: &str, from: usize, end: usize, quoted: Option<String>) -> Cow<'_, str> {
    match quoted {
        None => Cow::Borrowed(&text[from..end]),
        Some(mut s) => {
            s.push_str(&text[from..end]);
            Cow::Owned(s)
        }
    }
}

fn parse_float(s: &str) -> Option<f64> {
    // Tolerate currency formatting: "$1,234.50" -> 1234.50.
    let parsed = if s.bytes().any(|b| matches!(b, b'$' | b',' | b' ')) {
        s.replace(['$', ',', ' '], "").parse::<f64>()
    } else {
        s.parse::<f64>()
    };
    parsed.ok().filter(|v| v.is_finite())
}

fn parse_bool(s: &str) -> Option<bool> {
    let is = |word: &str| s.eq_ignore_ascii_case(word);
    if is("true") || is("t") || is("yes") {
        Some(true)
    } else if is("false") || is("f") || is("no") {
        Some(false)
    } else {
        None
    }
}

/// A column's value buffer and its validity mask.
type Typed<T> = (Arc<Vec<T>>, Option<Arc<Vec<bool>>>);

/// Parse every non-empty cell with `parse`, or `None` as soon as one
/// fails. An empty cell is a null: a default placeholder value plus a
/// validity mask, created only once a null is present.
fn typed<T: Default>(cells: &[&str], mut parse: impl FnMut(&str) -> Option<T>) -> Option<Typed<T>> {
    let mut values = Vec::with_capacity(cells.len());
    let mut validity: Option<Vec<bool>> = None;
    for (i, s) in cells.iter().enumerate() {
        if s.is_empty() {
            validity.get_or_insert_with(|| vec![true; cells.len()])[i] = false;
            values.push(T::default());
        } else {
            values.push(parse(s)?);
        }
    }
    Some((Arc::new(values), validity.map(Arc::new)))
}

/// The column of trimmed `cells` in the narrowest type that parses every
/// non-empty one: Int64, then Float64, then Bool, else Utf8 (also for a
/// column without values). No boolean word parses as a number, so a column
/// mixing numbers and booleans is Utf8.
fn build_column(cells: &[&str]) -> Column {
    if cells.iter().any(|s| !s.is_empty()) {
        if let Some((values, validity)) = typed(cells, |s| s.parse::<i64>().ok()) {
            return Column::Int64 { values, validity };
        }
        if let Some((values, validity)) = typed(cells, parse_float) {
            return Column::Float64 { values, validity };
        }
        if let Some((values, validity)) = typed(cells, parse_bool) {
            return Column::Bool { values, validity };
        }
    }
    let mut dict = StrDict::new();
    // Interning never fails, so `typed` always returns a column here.
    let (codes, validity) = typed(cells, |s| Some(dict.intern(s))).unwrap_or_default();
    Column::Utf8 {
        dict: Arc::new(dict),
        codes,
        validity,
    }
}

/// Read a CSV document (first line = header) with inferred column types.
pub fn read_csv<R: Read>(mut reader: R) -> Result<Table> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let text = std::str::from_utf8(&buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    if text.is_empty() {
        return Err(parse_error(1, "empty input: missing header"));
    }
    let mut scanner = Scanner {
        text,
        pos: if text.starts_with(BOM) { BOM.len() } else { 0 },
        line: 1,
    };
    let mut header = Vec::new();
    scanner.record(&mut header)?;
    let width = header.len();

    let mut cells: Vec<Cow<str>> = Vec::new();
    while scanner.pos < text.len() {
        let first = cells.len();
        let (line, blank) = scanner.record(&mut cells)?;
        // For a single-column document an empty line is a legitimate
        // record holding one empty (null) field; for wider schemas it is
        // a blank separator line and is skipped.
        if blank && width > 1 {
            cells.truncate(first);
            continue;
        }
        let found = cells.len() - first;
        if found != width {
            return Err(parse_error(
                line,
                format!("expected {width} fields, found {found}"),
            ));
        }
    }

    let mut column_cells = Vec::with_capacity(cells.len() / width);
    let mut fields = Vec::with_capacity(width);
    let mut columns = Vec::with_capacity(width);
    for (c, name) in header.iter().enumerate() {
        column_cells.clear();
        column_cells.extend(cells.iter().skip(c).step_by(width).map(|s| s.trim()));
        let column = build_column(&column_cells);
        fields.push(Field::new(name.trim(), column.dtype()));
        columns.push(column);
    }
    Table::new(Schema::new(fields)?, columns)
}

/// Read a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>) -> Result<Table> {
    let file = std::fs::File::open(path.as_ref())?;
    Ok(read_csv(file)?.with_name(path.as_ref().display().to_string()))
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Write a table as CSV (header + rows). Nulls serialize as empty fields.
pub fn write_csv<W: Write>(table: &Table, writer: &mut W) -> Result<()> {
    let mut out = std::io::BufWriter::new(writer);
    let names = table.schema().names();
    writeln!(out, "{}", names.join(","))?;
    for row in table.row_ids() {
        let mut first = true;
        for col in table.columns() {
            if !first {
                write!(out, ",")?;
            }
            first = false;
            let v = col.get(row);
            if !v.is_null() {
                write!(out, "{}", escape(&v.to_string()))?;
            }
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Write a table to a CSV file.
pub fn write_csv_path(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let mut file = std::fs::File::create(path)?;
    write_csv(table, &mut file)
}

/// The line-at-a-time reader this module replaced, kept verbatim as the
/// reference the single-pass reader is checked against. It keeps its two
/// defects, which the differential test leaves out: a quoted field cannot
/// span lines, and a boolean after a number in one column fails the read.
#[cfg(test)]
mod oracle {
    use crate::column::Column;
    use crate::error::{RelationError, Result};
    use crate::schema::{Field, Schema};
    use crate::table::Table;
    use crate::value::{DataType, Value};
    use std::io::{BufRead, BufReader, Read};

    /// Strip one trailing carriage return. `BufRead::lines` removes `\r\n` on
    /// newline-terminated lines, but a Windows-exported file whose final
    /// record lacks a trailing newline (or uses lone-`\r` endings) leaves the
    /// `\r` glued to the last field — silently corrupting every value parsed
    /// from it.
    fn strip_cr(line: &str) -> &str {
        line.strip_suffix('\r').unwrap_or(line)
    }

    /// Strip a UTF-8 byte-order mark. Excel and friends prepend one; without
    /// this the BOM becomes part of the first header name and target
    /// resolution (`column_by_name`) fails for it.
    fn strip_bom(line: &str) -> &str {
        line.strip_prefix('\u{feff}').unwrap_or(line)
    }

    /// Parse one CSV record (handles quotes); returns fields.
    fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            cur.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    _ => cur.push(c),
                }
            } else {
                match c {
                    '"' => {
                        if cur.is_empty() {
                            in_quotes = true;
                        } else {
                            return Err(RelationError::CsvParse {
                                line: line_no,
                                message: "unexpected quote mid-field".to_string(),
                            });
                        }
                    }
                    ',' => {
                        fields.push(std::mem::take(&mut cur));
                    }
                    _ => cur.push(c),
                }
            }
        }
        if in_quotes {
            return Err(RelationError::CsvParse {
                line: line_no,
                message: "unterminated quoted field".to_string(),
            });
        }
        fields.push(cur);
        Ok(fields)
    }

    /// The narrowest type that can represent every non-empty string in a column.
    fn sniff_type(raw: &[Vec<String>], col: usize) -> DataType {
        let mut candidate = DataType::Int64;
        let mut saw_value = false;
        for row in raw {
            let s = row[col].trim();
            if s.is_empty() {
                continue;
            }
            saw_value = true;
            match candidate {
                DataType::Int64 => {
                    if s.parse::<i64>().is_ok() {
                        continue;
                    }
                    candidate = DataType::Float64;
                    if parse_float(s).is_some() {
                        continue;
                    }
                    candidate = DataType::Bool;
                    if parse_bool(s).is_some() {
                        continue;
                    }
                    return DataType::Utf8;
                }
                DataType::Float64 => {
                    if parse_float(s).is_some() {
                        continue;
                    }
                    return DataType::Utf8;
                }
                DataType::Bool => {
                    if parse_bool(s).is_some() {
                        continue;
                    }
                    return DataType::Utf8;
                }
                DataType::Utf8 => return DataType::Utf8,
            }
        }
        if saw_value {
            candidate
        } else {
            DataType::Utf8
        }
    }

    fn parse_float(s: &str) -> Option<f64> {
        // Tolerate currency formatting: "$1,234.50" -> 1234.50.
        let cleaned: String = s
            .chars()
            .filter(|&c| c != '$' && c != ',' && c != ' ')
            .collect();
        cleaned.parse::<f64>().ok().filter(|v| v.is_finite())
    }

    fn parse_bool(s: &str) -> Option<bool> {
        match s.to_ascii_lowercase().as_str() {
            "true" | "t" | "yes" => Some(true),
            "false" | "f" | "no" => Some(false),
            _ => None,
        }
    }

    fn parse_cell(s: &str, dtype: DataType, line: usize) -> Result<Value> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Value::Null);
        }
        match dtype {
            DataType::Int64 => {
                s.parse::<i64>()
                    .map(Value::Int)
                    .map_err(|e| RelationError::CsvParse {
                        line,
                        message: format!("bad integer {s:?}: {e}"),
                    })
            }
            DataType::Float64 => {
                parse_float(s)
                    .map(Value::Float)
                    .ok_or_else(|| RelationError::CsvParse {
                        line,
                        message: format!("bad float {s:?}"),
                    })
            }
            DataType::Bool => {
                parse_bool(s)
                    .map(Value::Bool)
                    .ok_or_else(|| RelationError::CsvParse {
                        line,
                        message: format!("bad bool {s:?}"),
                    })
            }
            DataType::Utf8 => Ok(Value::str(s)),
        }
    }

    /// Read a CSV document (first line = header) with inferred column types.
    pub fn read_csv<R: Read>(reader: R) -> Result<Table> {
        let buf = BufReader::new(reader);
        let mut lines = buf.lines();
        let header_line = match lines.next() {
            Some(l) => l?,
            None => {
                return Err(RelationError::CsvParse {
                    line: 1,
                    message: "empty input: missing header".to_string(),
                })
            }
        };
        let header = parse_record(strip_cr(strip_bom(&header_line)), 1)?;
        let width = header.len();

        let mut raw: Vec<Vec<String>> = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            let line = strip_cr(&line);
            if line.is_empty() {
                // For a single-column document an empty line is a legitimate
                // record holding one empty (null) field; for wider schemas it
                // is a blank separator line and is skipped.
                if width == 1 {
                    raw.push(vec![String::new()]);
                }
                continue;
            }
            let rec = parse_record(line, i + 2)?;
            if rec.len() != width {
                return Err(RelationError::CsvParse {
                    line: i + 2,
                    message: format!("expected {width} fields, found {}", rec.len()),
                });
            }
            raw.push(rec);
        }

        let dtypes: Vec<DataType> = (0..width).map(|c| sniff_type(&raw, c)).collect();
        let schema = Schema::new(
            header
                .iter()
                .zip(dtypes.iter())
                .map(|(name, &dtype)| Field::new(name.trim(), dtype))
                .collect(),
        )?;

        let mut columns: Vec<Column> = dtypes.iter().map(|&t| Column::empty(t)).collect();
        for (r, rec) in raw.iter().enumerate() {
            for (c, cell) in rec.iter().enumerate() {
                columns[c].push(parse_cell(cell, dtypes[c], r + 2)?)?;
            }
        }
        Table::new(schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    #[test]
    fn reads_typed_columns() {
        let data = "name,exp,salary,active\nAnne,2,230000.5,true\nBob,3,250000,false\n";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.schema().dtype_of("name").unwrap(), DataType::Utf8);
        assert_eq!(t.schema().dtype_of("exp").unwrap(), DataType::Int64);
        assert_eq!(t.schema().dtype_of("salary").unwrap(), DataType::Float64);
        assert_eq!(t.schema().dtype_of("active").unwrap(), DataType::Bool);
        assert_eq!(t.value(0, "salary").unwrap(), Value::Float(230_000.5));
    }

    #[test]
    fn currency_and_thousands_separators() {
        let data = "pay\n\"$1,234.50\"\n$99\n";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.schema().dtype_of("pay").unwrap(), DataType::Float64);
        assert_eq!(t.value(0, "pay").unwrap(), Value::Float(1234.5));
        assert_eq!(t.value(1, "pay").unwrap(), Value::Float(99.0));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let data = "a,b\n\"x, y\",\"he said \"\"hi\"\"\"\n";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.value(0, "a").unwrap(), Value::str("x, y"));
        assert_eq!(t.value(0, "b").unwrap(), Value::str("he said \"hi\""));
    }

    #[test]
    fn empty_fields_become_null() {
        let data = "a,b\n1,\n,2\n";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.value(0, "b").unwrap(), Value::Null);
        assert_eq!(t.value(1, "a").unwrap(), Value::Null);
        assert_eq!(t.column_by_name("a").unwrap().null_count(), 1);
    }

    #[test]
    fn mixed_int_float_widens() {
        let data = "x\n1\n2.5\n";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.schema().dtype_of("x").unwrap(), DataType::Float64);
    }

    #[test]
    fn ragged_rows_rejected() {
        let data = "a,b\n1\n";
        let err = read_csv(data.as_bytes()).unwrap_err();
        assert!(matches!(err, RelationError::CsvParse { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let data = "a\n\"oops\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn crlf_ingests_identically_to_lf() {
        let lf = "name,exp,salary\nAnne,2,230000.5\nBob,3,250000\n";
        let crlf = lf.replace('\n', "\r\n");
        let a = read_csv(lf.as_bytes()).unwrap();
        let b = read_csv(crlf.as_bytes()).unwrap();
        assert!(a.content_eq(&b));
        // No \r embedded in the last column's values or its header name.
        assert_eq!(b.value(1, "salary").unwrap(), Value::Float(250_000.0));
    }

    #[test]
    fn crlf_final_line_without_newline() {
        // The last record has no trailing newline, so its \r is not part
        // of a line ending and must still be stripped.
        let data = "a,b\r\n1,x\r\n2,y\r";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.value(1, "b").unwrap(), Value::str("y"));
    }

    #[test]
    fn bom_stripped_from_first_header() {
        let data = "\u{feff}name,exp\nAnne,2\n";
        let t = read_csv(data.as_bytes()).unwrap();
        // Target resolution by plain name must work.
        assert_eq!(t.value(0, "name").unwrap(), Value::str("Anne"));
        assert_eq!(t.schema().dtype_of("exp").unwrap(), DataType::Int64);
        // BOM + CRLF together (the typical Excel export).
        let both = "\u{feff}name,exp\r\nAnne,2\r\n";
        assert!(t.content_eq(&read_csv(both.as_bytes()).unwrap()));
    }

    #[test]
    fn quoted_fields_interact_with_crlf() {
        // Quoted commas and doubled quotes on CRLF-terminated lines; the
        // quoted field is the *last* column, where a stray \r would land.
        let data = "a,b\r\n1,\"x, y\"\r\n2,\"he said \"\"hi\"\"\"\r\n";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.value(0, "b").unwrap(), Value::str("x, y"));
        assert_eq!(t.value(1, "b").unwrap(), Value::str("he said \"hi\""));
        let lf_twin = data.replace("\r\n", "\n");
        assert!(t.content_eq(&read_csv(lf_twin.as_bytes()).unwrap()));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let data = "name,exp,salary\n\"Lee, Anne\",2,230000.0\nBob,,250000.0\n";
        let t = read_csv(data.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let t2 = read_csv(buf.as_slice()).unwrap();
        assert!(t.content_eq(&t2));
    }

    #[test]
    fn numbers_and_booleans_in_one_column_are_text() {
        // Numbers and boolean words in one column make it Utf8, in
        // either order; an all-boolean column stays Bool.
        for (data, first, second) in [("x\n1\nyes\n", "1", "yes"), ("x\nyes\n1\n", "yes", "1")] {
            let t = read_csv(data.as_bytes()).unwrap();
            assert_eq!(
                t.schema().dtype_of("x").unwrap(),
                DataType::Utf8,
                "{data:?}"
            );
            assert_eq!(t.value(0, "x").unwrap(), Value::str(first));
            assert_eq!(t.value(1, "x").unwrap(), Value::str(second));
        }
        let t = read_csv("x\ntrue\n\nNO\n".as_bytes()).unwrap();
        assert_eq!(t.schema().dtype_of("x").unwrap(), DataType::Bool);
        assert_eq!(t.value(2, "x").unwrap(), Value::Bool(false));
    }

    #[test]
    fn quoted_newlines_read_back() {
        let data = "a,b\n\"line one\nline two\",1\n\"x\r\ny\",2\n";
        let t = read_csv(data.as_bytes()).unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.value(0, "a").unwrap(), Value::str("line one\nline two"));
        assert_eq!(t.value(1, "a").unwrap(), Value::str("x\r\ny"));
        assert_eq!(t.value(1, "b").unwrap(), Value::Int(2));
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        assert!(t.content_eq(&read_csv(buf.as_slice()).unwrap()));
    }

    #[test]
    fn errors_name_the_physical_line_a_record_starts_on() {
        let line_of = |data: &str| match read_csv(data.as_bytes()) {
            Err(RelationError::CsvParse { line, .. }) => line,
            other => panic!("{data:?} gave {other:?}"),
        };
        assert_eq!(line_of("a,b\n\"x\ny\",1\n2\n"), 4);
        assert_eq!(line_of("a\n\"x\n\ny\"\n\"oops\nmore\n"), 5);
        assert_eq!(line_of("a,b\n1,\"x\ny\"z\"\n"), 2);
    }

    /// Same schema, height, dtypes, null masks, value bits and dictionary
    /// code order.
    fn same_table(a: &Table, b: &Table) -> std::result::Result<(), String> {
        if a.schema().names() != b.schema().names() || a.height() != b.height() {
            return Err(format!("shape: {:?} vs {:?}", a.schema(), b.schema()));
        }
        for (c, (x, y)) in a.columns().iter().zip(b.columns()).enumerate() {
            let same = match (x, y) {
                (
                    Column::Int64 { values, validity },
                    Column::Int64 {
                        values: v2,
                        validity: m2,
                    },
                ) => values == v2 && validity == m2,
                (
                    Column::Float64 { values, validity },
                    Column::Float64 {
                        values: v2,
                        validity: m2,
                    },
                ) => {
                    values
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(v2.iter().map(|v| v.to_bits()))
                        && validity == m2
                }
                (
                    Column::Bool { values, validity },
                    Column::Bool {
                        values: v2,
                        validity: m2,
                    },
                ) => values == v2 && validity == m2,
                (
                    Column::Utf8 {
                        dict,
                        codes,
                        validity,
                    },
                    Column::Utf8 {
                        dict: d2,
                        codes: c2,
                        validity: m2,
                    },
                ) => {
                    codes == c2
                        && validity == m2
                        && dict.len() == d2.len()
                        && (0..dict.len() as u32).all(|k| dict.resolve(k) == d2.resolve(k))
                }
                _ => false,
            };
            if !same {
                return Err(format!("column {c}: {x:?} vs {y:?}"));
            }
        }
        Ok(())
    }

    mod generated {
        use super::super::*;
        use super::same_table;
        use proptest::prelude::*;

        /// Raw field texts by column kind: ints, floats (with currency
        /// formatting), booleans, text with quoting, and a mix of all.
        const POOLS: [&[&str]; 4] = [
            &[
                "0",
                "7",
                "-12",
                " 42 ",
                "\"13\"",
                "9223372036854775807",
                "+5",
                "",
            ],
            &[
                "2.5",
                "-0.0",
                "1e3",
                "\"$1,234.5\"",
                "$99",
                "\"$ 1 000\"",
                " 3.25 ",
                "7",
                "",
            ],
            &["true", "F", "yes", "NO", "t", " false ", ""],
            &[
                "abc",
                "x y",
                "\"a,b\"",
                "\"he said \"\"hi\"\"\"",
                "\"\"",
                "a\rb",
                "a\r",
                "\"x\ry\"",
                "\"x\r\"",
                "\u{e9}\u{feff}",
                "\" padded \"",
                "\"ab\"cd",
                "",
            ],
        ];

        fn cell(kind: usize) -> BoxedStrategy<String> {
            let pick = |pool: &'static [&'static str]| {
                (0..pool.len()).prop_map(move |i| pool[i].to_string())
            };
            // Kind 4 mixes every pool; a rare `a"b` is a quote mid-field.
            let any = prop_oneof![
                1 => pick(POOLS[0]),
                1 => pick(POOLS[1]),
                1 => pick(POOLS[2]),
                1 => pick(POOLS[3])
            ];
            let body = if kind < POOLS.len() {
                pick(POOLS[kind]).boxed()
            } else {
                any.boxed()
            };
            prop_oneof![200 => body, 1 => Just("a\"b".to_string())].boxed()
        }

        const ENDINGS: [&str; 4] = ["\n", "\r\n", "\r\r\n", "\n"];
        const LAST_ENDINGS: [&str; 4] = ["", "\n", "\r\n", "\r"];

        /// One line: a full record, or (rarely) a blank line or a ragged
        /// record, plus its line ending.
        fn line(kinds: &[usize]) -> impl Strategy<Value = (String, usize)> {
            let cells: Vec<BoxedStrategy<String>> = kinds.iter().map(|&k| cell(k)).collect();
            (cells, 0usize..64, 0usize..ENDINGS.len()).prop_map(|(mut cells, shape, ending)| {
                let text = match shape {
                    0 => String::new(),
                    1 => "\r".to_string(),
                    2 if cells.len() > 1 => {
                        cells.pop();
                        cells.join(",")
                    }
                    3 => {
                        cells.push("9".to_string());
                        cells.join(",")
                    }
                    _ => cells.join(","),
                };
                (text, ending)
            })
        }

        /// A document with quoted fields, doubled quotes, an optional BOM,
        /// CRLF and lone `\r`, blank lines, ragged rows, and ints, floats,
        /// currency, booleans and nulls in mixed columns. Quoted fields
        /// never span lines and an unterminated quote only closes the
        /// document: both are where the single-pass reader fixes the line
        /// reader on purpose.
        fn document() -> impl Strategy<Value = String> {
            proptest::collection::vec(0usize..5, 1..5).prop_flat_map(|kinds| {
                let names: Vec<BoxedStrategy<String>> = (0..kinds.len())
                    .map(|i| {
                        prop_oneof![
                            12 => Just(format!("c{i}")),
                            1 => Just(format!("\" c{i},\"")),
                            1 => Just("c0 ".to_string())
                        ]
                        .boxed()
                    })
                    .collect();
                (
                    (any::<bool>(), names),
                    proptest::collection::vec(line(&kinds), 0..10),
                    0usize..LAST_ENDINGS.len(),
                    0usize..16,
                )
                    .prop_map(|((bom, names), lines, last, tail)| {
                        let mut doc = String::new();
                        if bom {
                            doc.push_str(BOM);
                        }
                        doc.push_str(&names.join(","));
                        for (text, ending) in &lines {
                            doc.push_str(ENDINGS[*ending]);
                            doc.push_str(text);
                        }
                        if tail == 0 {
                            doc.push_str(",\"unterminated");
                        }
                        doc.push_str(LAST_ENDINGS[last]);
                        doc
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            #[test]
            fn single_pass_reader_matches_line_reader(doc in document()) {
                let new = read_csv(doc.as_bytes());
                match (&new, &oracle::read_csv(doc.as_bytes())) {
                    // A boolean column after a number, which the line
                    // reader rejected: left out (see the unit test above).
                    (_, Err(RelationError::CsvParse { message, .. }))
                        if message.starts_with("bad bool") => prop_assert!(new.is_ok()),
                    (Ok(a), Ok(b)) => {
                        if let Err(diff) = same_table(a, b) {
                            return Err(TestCaseError::fail(format!("{doc:?}: {diff}")));
                        }
                    }
                    (a, b) => prop_assert_eq!(a.as_ref().err(), b.as_ref().err(), "{:?}", doc),
                }
            }

            #[test]
            fn fuzzed_bytes_give_a_table_or_a_typed_error(
                chunks in proptest::collection::vec(
                    prop_oneof![
                        6 => Just(&b"\""[..]),
                        6 => Just(&b","[..]),
                        4 => Just(&b"\r"[..]),
                        6 => Just(&b"\n"[..]),
                        2 => Just(BOM.as_bytes()),
                        1 => Just(&b"\xff"[..]),
                        1 => Just(&b"\xc3"[..]),
                        1 => Just(&b"\xe2\x82"[..]),
                        1 => Just("\u{e9}".as_bytes()),
                        3 => Just(&b"a"[..]),
                        3 => Just(&b"1"[..]),
                        2 => Just(&b"2.5"[..]),
                        2 => Just(&b"yes"[..]),
                        2 => Just(&b" "[..]),
                        1 => Just(&b"$"[..])
                    ],
                    0..48,
                ),
            ) {
                let doc = chunks.concat();
                let utf8 = std::str::from_utf8(&doc).is_ok();
                match read_csv(doc.as_slice()) {
                    Ok(t) => {
                        prop_assert!(utf8);
                        prop_assert!(t.columns().iter().all(|c| c.len() == t.height()));
                    }
                    Err(RelationError::Io(_)) => prop_assert!(!utf8),
                    Err(RelationError::CsvParse { line, .. }) => {
                        let lines = doc.iter().filter(|&&b| b == b'\n').count() + 1;
                        prop_assert!(utf8 && (1..=lines).contains(&line), "line {}", line);
                    }
                    Err(other) => prop_assert!(
                        utf8 && matches!(other, RelationError::SchemaMismatch(_)),
                        "{:?}", other
                    ),
                }
            }
        }
    }
}
