//! The result line and a reader for it, hand-rolled (the workspace has no
//! serde).
//!
//! Every run ends with one JSON object on the last line of stdout:
//!
//! ```text
//! {"correct": true, "attempted": 48, "failed": 0, "metrics": {"wall_s": {"value": 1.93, "unit": "s"}}}
//! ```
//!
//! The ledger's parent process reads its children's lines back with
//! [`parse`], which accepts the subset of JSON the line uses: objects,
//! strings, numbers, booleans and `null`.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Renders the result line. Values keep every digit Rust prints for
/// them; a non-finite value (which JSON cannot carry) becomes `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&m.name),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON string literal. Names and units are printable ASCII; only the
/// quote and the backslash need escaping.
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parses one complete document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing text at byte {}", p.i))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| b"+-.eE0123456789".contains(c))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match *self.s.get(self.i).ok_or("unterminated string")? {
                b'"' => break,
                b'\\' => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(&c @ (b'"' | b'\\')) => out.push(c),
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    }
                }
                c => out.push(c),
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_well_formed_json_with_the_contract_keys() {
        let metrics = vec![
            Metric::new("queries_per_s", "1/s", 12_345.678_9),
            Metric::new("setup_s", "s", 0.000_312_5),
            Metric::new("odd \"name\\", "%", -1.5e-7),
            Metric::new("broken", "ns", f64::NAN),
        ];
        let line = result_line(true, 48, 0, &metrics);
        assert!(!line.contains('\n'));
        let v = parse(&line).expect("well-formed");
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(48.0));
        let m = v.get("metrics").unwrap();
        let qps = m.get("queries_per_s").unwrap();
        assert_eq!(qps.get("value").and_then(Value::as_f64), Some(12_345.678_9));
        assert_eq!(qps.get("unit"), Some(&Value::Str("1/s".to_string())));
        assert_eq!(
            m.get("setup_s")
                .unwrap()
                .get("value")
                .and_then(Value::as_f64),
            Some(0.000_312_5)
        );
        let odd = m.get("odd \"name\\").unwrap();
        assert_eq!(odd.get("value").and_then(Value::as_f64), Some(-1.5e-7));
        assert_eq!(m.get("broken").unwrap().get("value"), Some(&Value::Null));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{\"a\": .5}",
            "{\"a\": 1} x",
            "{\"a\": 1e}",
            "\"open",
            "tru",
            "[1]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse("{\"x\": -2.5e3, \"y\": null}"),
            Ok(Value::Obj(vec![
                ("x".to_string(), Value::Num(-2500.0)),
                ("y".to_string(), Value::Null),
            ]))
        );
    }
}
