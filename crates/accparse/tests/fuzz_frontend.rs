//! Robustness properties of the front end: the lexer, parser and semantic
//! analyzer must never panic — every malformed input becomes a `Diag`.

use accparse::{compile, parser, token};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// The lexer returns Ok or Err on arbitrary bytes, never panics.
    #[test]
    fn lexer_total(src in "\\PC*") {
        let _ = token::lex(&src);
    }

    /// The parser is total on arbitrary strings.
    #[test]
    fn parser_total(src in "\\PC*") {
        let _ = parser::parse_program(&src);
    }

    /// The whole front end is total on token-soup built from the language's
    /// own vocabulary (much more likely to get deep into the parser/sema).
    #[test]
    fn frontend_total_on_vocabulary_soup(words in prop::collection::vec(
        prop_oneof![
            Just("int"), Just("float"), Just("double"), Just("long"),
            Just("for"), Just("if"), Just("else"),
            Just("#pragma acc parallel\n"), Just("#pragma acc loop gang\n"),
            Just("#pragma acc loop vector reduction(+:s)\n"),
            Just("#pragma omp target teams distribute\n"),
            Just("("), Just(")"), Just("{"), Just("}"), Just("["), Just("]"),
            Just(";"), Just(","), Just("="), Just("+="), Just("+"), Just("*"),
            Just("<"), Just("a"), Just("s"), Just("i"), Just("N"), Just("0"),
            Just("1"), Just("2.5"), Just("fmax"), Just("collapse(2)"),
            Just("reduction(max:s)"), Just("copyin(a)"),
            // The clause shapes the parser parses once for every directive.
            Just("map(to:"), Just("[0:N]"), Just("schedule(static)"), Just("num_teams("),
            Just("if("), Just("async("), Just("#pragma omp parallel for\n"),
            Just("#pragma acc data copy(a)\n"), Just("?"), Just(":"), Just("!"), Just("~"),
        ],
        0..60,
    )) {
        let src = words.join(" ");
        let _ = compile(&src);
    }

    /// Expression parser round-trips through arbitrary nesting depth
    /// without stack overflow (bounded here; deep inputs error cleanly).
    #[test]
    fn deep_parens_do_not_crash(depth in 0usize..200) {
        let src = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let _ = parser::parse_expr(&src);
    }

    /// Valid generated reduction programs always compile.
    #[test]
    fn generated_valid_programs_compile(
        n_ops in 1usize..4,
        use_if in any::<bool>(),
        ty in prop_oneof![Just("int"), Just("long"), Just("double")],
    ) {
        let mut body = String::new();
        for k in 0..n_ops {
            body.push_str(&format!("s += a[i] + {k};\n"));
        }
        if use_if {
            body = format!("if (i % 2 == 0) {{ {body} }}");
        }
        let src = format!(
            "int N; {ty} s;\n{ty} a[N];\ns = 0;\n#pragma acc parallel copyin(a)\n{{\n#pragma acc loop gang vector reduction(+:s)\nfor (int i = 0; i < N; i++) {{\n{body}\n}}\n}}"
        );
        prop_assert!(compile(&src).is_ok(), "{src}");
    }
}
