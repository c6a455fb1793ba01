//! CSV reading and writing with type inference.
//!
//! Supports RFC-4180-style quoting (`"..."` with doubled inner quotes),
//! per-column type sniffing (Int64 → Float64 → Bool → Utf8 fallback), and
//! empty-field-as-null. Small by design: enough to load the demo datasets
//! (Montgomery payroll, billionaires list) and round-trip our own output.

use crate::column::Column;
use crate::error::{RelationError, Result};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

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
        DataType::Int64 => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| RelationError::CsvParse {
                line,
                message: format!("bad integer {s:?}: {e}"),
            }),
        DataType::Float64 => {
            parse_float(s)
                .map(Value::Float)
                .ok_or_else(|| RelationError::CsvParse {
                    line,
                    message: format!("bad float {s:?}"),
                })
        }
        DataType::Bool => parse_bool(s)
            .map(Value::Bool)
            .ok_or_else(|| RelationError::CsvParse {
                line,
                message: format!("bad bool {s:?}"),
            }),
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // The residual case `BufRead::lines` does not cover: the last
        // record keeps its \r when the trailing newline is missing.
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
}
