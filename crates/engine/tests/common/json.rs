//! JSON well-formedness, for the exporters' and the metrics' output (no
//! serde in the offline build).

/// Minimal recursive-descent JSON well-formedness check (not a
/// general-purpose parser).
pub fn validate_json(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        ws(b, i);
        if *i >= b.len() {
            return false;
        }
        match b[*i] {
            b'{' => {
                *i += 1;
                ws(b, i);
                if *i < b.len() && b[*i] == b'}' {
                    *i += 1;
                    return true;
                }
                loop {
                    ws(b, i);
                    if !string(b, i) {
                        return false;
                    }
                    ws(b, i);
                    if *i >= b.len() || b[*i] != b':' {
                        return false;
                    }
                    *i += 1;
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            b'[' => {
                *i += 1;
                ws(b, i);
                if *i < b.len() && b[*i] == b']' {
                    *i += 1;
                    return true;
                }
                loop {
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            b'"' => string(b, i),
            b't' => lit(b, i, b"true"),
            b'f' => lit(b, i, b"false"),
            b'n' => lit(b, i, b"null"),
            _ => number(b, i),
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if *i >= b.len() || b[*i] != b'"' {
            return false;
        }
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => *i += 2,
                _ => *i += 1,
            }
        }
        false
    }
    fn lit(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
        if b.len() - *i >= lit.len() && &b[*i..*i + lit.len()] == lit {
            *i += lit.len();
            true
        } else {
            false
        }
    }
    fn number(b: &[u8], i: &mut usize) -> bool {
        if *i < b.len() && b[*i] == b'-' {
            *i += 1;
        }
        // a number starts with a digit: a lone `-` is not one
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return false;
        }
        while *i < b.len()
            && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *i += 1;
        }
        true
    }
    if !value(b, &mut i) {
        return false;
    }
    ws(b, &mut i);
    i == b.len()
}

/// Validate a JSONL document: every non-empty line is valid JSON.
pub fn validate_jsonl(s: &str) -> bool {
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .all(validate_json)
}
