//! Recursive-descent parser producing the [`crate::ast`] types.

use crate::ast::*;
use crate::diag::{Diag, Span};
use crate::token::{lex, SpannedTok, Tok};

/// Parse a full translation unit.
pub fn parse_program(src: &str) -> Result<Program, Diag> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        data_blocks: Vec::new(),
        expr_depth: 0,
    };
    p.program()
}

/// Parse a single expression (used by tests and by host-side bound
/// evaluation).
pub fn parse_expr(src: &str) -> Result<Expr, Diag> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        data_blocks: Vec::new(),
        expr_depth: 0,
    };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Maximum expression nesting depth. Real programs stay far below this;
/// the guard turns pathological inputs (fuzzer-grade paren towers) into a
/// clean diagnostic instead of betting on stack headroom.
const MAX_EXPR_DEPTH: u32 = 128;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    data_blocks: Vec<DataBlock>,
    expr_depth: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> SpannedTok {
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<Span, Diag> {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            Ok(self.bump().span)
        } else {
            Err(Diag::new(
                format!("expected `{p}`, found {}", describe(self.peek())),
                self.span(),
            ))
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diag> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let sp = self.bump().span;
                Ok((s, sp))
            }
            other => Err(Diag::new(
                format!("expected identifier, found {}", describe(&other)),
                self.span(),
            )),
        }
    }

    fn expect_eof(&mut self) -> Result<(), Diag> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(Diag::new(
                format!("unexpected trailing {}", describe(self.peek())),
                self.span(),
            ))
        }
    }

    fn at_type_keyword(&self) -> Option<CType> {
        match self.peek() {
            Tok::Ident(s) => CType::from_name(s),
            _ => None,
        }
    }

    // ---- program structure ----------------------------------------------

    fn program(&mut self) -> Result<Program, Diag> {
        let mut decls = Vec::new();
        let mut regions = Vec::new();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::PragmaStart => {
                    if self.at_data_pragma() {
                        self.data_block(&mut regions)?;
                        continue;
                    }
                    let construct = self.pragma_region()?;
                    regions.push(construct);
                }
                _ => {
                    if self.at_type_keyword().is_some() {
                        decls.push(self.decl_stmt()?);
                    } else if matches!(self.peek(), Tok::Ident(_)) {
                        // Host-side scalar assignment (e.g. `sum = 0;`).
                        decls.push(self.expr_stmt()?);
                    } else {
                        return Err(Diag::new(
                            format!(
                                "expected declaration or `#pragma acc parallel`, found {}",
                                describe(self.peek())
                            ),
                            self.span(),
                        ));
                    }
                }
            }
        }
        if regions.is_empty() {
            return Err(Diag::new(
                "no `#pragma acc parallel` region found",
                Span::at(0),
            ));
        }
        Ok(Program {
            decls,
            regions,
            data_blocks: std::mem::take(&mut self.data_blocks),
        })
    }

    /// Lookahead: is the pragma at the cursor `#pragma acc data`?
    fn at_data_pragma(&self) -> bool {
        matches!(&self.toks.get(self.pos + 1).map(|t| &t.tok), Some(Tok::Ident(a)) if a == "acc")
            && matches!(&self.toks.get(self.pos + 2).map(|t| &t.tok), Some(Tok::Ident(d)) if d == "data")
    }

    /// `#pragma acc data <data-clauses>` `{` regions... `}` — a structured
    /// data region (OpenACC 1.0) governing residency of the arrays across
    /// the enclosed parallel regions. Nesting is allowed.
    fn data_block(&mut self, regions: &mut Vec<ParallelConstruct>) -> Result<(), Diag> {
        let start = self.bump().span; // PragmaStart
        self.bump(); // acc
        self.bump(); // data
        let mut items = Vec::new();
        self.clauses(|p, name, span| match data_dir(name) {
            Some(dir) => p.data_items(dir, &mut items),
            None => Err(Diag::new(format!("unknown data clause `{name}`"), span)),
        })?;
        self.expect_punct("{")?;
        let first_region = regions.len();
        while !self.eat_punct("}") {
            match self.peek() {
                Tok::Eof => return Err(Diag::new("unterminated `acc data` region", start)),
                Tok::PragmaStart if self.at_data_pragma() => {
                    self.data_block(regions)?;
                }
                Tok::PragmaStart => {
                    regions.push(self.pragma_region()?);
                }
                _ => {
                    return Err(Diag::new(
                        "only `#pragma acc` constructs may appear inside a data region",
                        self.span(),
                    ))
                }
            }
        }
        self.data_blocks.push(DataBlock {
            items,
            first_region,
            end_region: regions.len(),
            span: start,
        });
        Ok(())
    }

    /// Parse a top-level pragma: `acc parallel`/`acc kernels`, or the
    /// OpenMP 4.0 offload form `omp target teams distribute [parallel for]`
    /// (paper §6: the same methodology with two levels of parallelism —
    /// teams map to gangs, threads to vector lanes, worker is unused).
    fn pragma_region(&mut self) -> Result<ParallelConstruct, Diag> {
        let start = self.bump().span; // PragmaStart
        if self.eat_ident("omp") {
            return self.omp_region(start);
        }
        if !self.eat_ident("acc") {
            return Err(Diag::new(
                "expected `acc` or `omp` after `#pragma`",
                self.span(),
            ));
        }
        let is_kernels = if self.eat_ident("parallel") {
            false
        } else if self.eat_ident("kernels") {
            true
        } else {
            return Err(Diag::new(
                "expected `parallel` or `kernels` at region scope (a `loop` directive \
                 must be inside a parallel region)",
                self.span(),
            ));
        };
        let mut c = empty_construct(is_kernels, start);
        // `parallel loop` combined form: its loop clauses go to the loop.
        let mut combined_loop = self.eat_ident("loop").then(|| LoopDirective {
            span: start,
            ..Default::default()
        });
        self.clauses(|p, name, span| p.parallel_clause(&mut c, &mut combined_loop, name, span))?;
        c.body = match combined_loop {
            Some(dir) => {
                let written = if is_kernels {
                    "#pragma acc kernels loop"
                } else {
                    "#pragma acc parallel loop"
                };
                vec![self.directed_for(dir, written)?]
            }
            None => self.stmt_as_block()?,
        };
        Ok(c)
    }

    fn parallel_clause(
        &mut self,
        c: &mut ParallelConstruct,
        combined: &mut Option<LoopDirective>,
        name: &str,
        span: Span,
    ) -> Result<(), Diag> {
        match name {
            "num_gangs" => c.num_gangs = Some(self.paren_expr()?),
            "num_workers" => c.num_workers = Some(self.paren_expr()?),
            "vector_length" => c.vector_length = Some(self.paren_expr()?),
            "private" => c.privates.extend(self.name_list()?),
            "reduction" => {
                let rs = self.reduction_clause(span)?;
                match combined {
                    // On `parallel loop`, the reduction belongs to the loop.
                    Some(dir) => dir.reductions.extend(rs),
                    None => c.reductions.extend(rs),
                }
            }
            // Combined-directive loop clauses.
            "gang" | "worker" | "vector" | "seq" | "collapse" => match combined {
                Some(dir) => self.loop_word(dir, name, span)?,
                None => {
                    return Err(Diag::new(
                        format!("clause `{name}` requires a `loop` directive"),
                        span,
                    ))
                }
            },
            "async" | "wait" | "default" | "if" | "firstprivate" | "deviceptr" => {
                self.skip_clause_args(span)?
            }
            other => match data_dir(other) {
                Some(dir) => self.data_items(dir, &mut c.data)?,
                None => {
                    return Err(Diag::new(
                        format!("unknown parallel clause `{other}`"),
                        span,
                    ))
                }
            },
        }
        Ok(())
    }

    fn loop_word(&mut self, dir: &mut LoopDirective, word: &str, span: Span) -> Result<(), Diag> {
        match word {
            "gang" => dir.levels.push(Level::Gang),
            "worker" => dir.levels.push(Level::Worker),
            "vector" => dir.levels.push(Level::Vector),
            "seq" => dir.seq = true,
            "collapse" => dir.collapse = Some(self.collapse_arg(span)?),
            "independent" | "auto" => {} // accepted, no effect
            other => {
                return Err(Diag::new(format!("unknown loop clause `{other}`"), span));
            }
        }
        Ok(())
    }

    /// OpenMP offload region: `omp target teams distribute [parallel for]
    /// [clauses]`. Desugared onto the OpenACC AST: teams -> gang, the
    /// optional `parallel for` -> vector on the same loop (two-level
    /// mapping, the worker level is ignored as §6 prescribes).
    fn omp_region(&mut self, start: Span) -> Result<ParallelConstruct, Diag> {
        for w in ["target", "teams", "distribute"] {
            if !self.eat_ident(w) {
                return Err(Diag::new(
                    format!(
                        "expected `{w}` (supported form: `omp target teams \
                             distribute [parallel for]`)"
                    ),
                    self.span(),
                ));
            }
        }
        let mut written = "#pragma omp target teams distribute";
        let mut levels = vec![Level::Gang];
        if self.eat_ident("parallel") {
            if !self.eat_ident("for") {
                return Err(Diag::new("expected `for` after `parallel`", self.span()));
            }
            written = "#pragma omp target teams distribute parallel for";
            levels.push(Level::Vector);
        }
        let mut c = empty_construct(false, start);
        let mut dir = LoopDirective {
            levels,
            span: start,
            ..Default::default()
        };
        self.clauses(|p, name, span| {
            match name {
                "num_teams" => c.num_gangs = Some(p.paren_expr()?),
                "thread_limit" => c.vector_length = Some(p.paren_expr()?),
                "map" => {
                    // map([to|from|tofrom:] list)
                    p.expect_punct("(")?;
                    let mut map_dir = DataDir::Copy;
                    for (word, d) in [
                        ("to", DataDir::CopyIn),
                        ("from", DataDir::CopyOut),
                        ("tofrom", DataDir::Copy),
                    ] {
                        if p.eat_ident(word) {
                            p.expect_punct(":")?;
                            map_dir = d;
                            break;
                        }
                    }
                    p.data_list(map_dir, &mut c.data)?;
                    p.expect_punct(")")?;
                }
                "reduction" => dir.reductions.extend(p.reduction_clause(span)?),
                "private" => c.privates.extend(p.name_list()?),
                "collapse" => dir.collapse = Some(p.collapse_arg(span)?),
                "schedule" | "if" | "device" => p.skip_clause_args(span)?,
                other => return Err(Diag::new(format!("unknown omp clause `{other}`"), span)),
            }
            Ok(())
        })?;
        c.body = vec![self.directed_for(dir, written)?];
        Ok(c)
    }

    /// A loop directive inside a region — `#pragma acc loop` or, inside a
    /// teams region, `#pragma omp parallel for` (the inner thread level ->
    /// vector) — and how it was written.
    fn loop_directive(&mut self) -> Result<(LoopDirective, &'static str), Diag> {
        let start = self.bump().span; // PragmaStart
        let omp = self.eat_ident("omp");
        if omp {
            if !(self.eat_ident("parallel") && self.eat_ident("for")) {
                return Err(Diag::new(
                    "expected `parallel for` (the supported inner OpenMP directive)",
                    self.span(),
                ));
            }
        } else if !self.eat_ident("acc") {
            return Err(Diag::new(
                "expected `acc` or `omp` after `#pragma`",
                self.span(),
            ));
        } else if !self.eat_ident("loop") {
            return Err(Diag::new(
                "only `loop` directives may appear inside a parallel region",
                self.span(),
            ));
        }
        let mut dir = LoopDirective {
            levels: if omp { vec![Level::Vector] } else { Vec::new() },
            span: start,
            ..Default::default()
        };
        self.clauses(|p, name, span| {
            match name {
                "reduction" => dir.reductions.extend(p.reduction_clause(span)?),
                "private" => dir.privates.extend(p.name_list()?),
                "schedule" if omp => p.skip_clause_args(span)?,
                other if omp => {
                    return Err(Diag::new(format!("unknown omp clause `{other}`"), span))
                }
                other => p.loop_word(&mut dir, other, span)?,
            }
            Ok(())
        })?;
        let written = if omp {
            "#pragma omp parallel for"
        } else {
            "#pragma acc loop"
        };
        Ok((dir, written))
    }

    /// Parse a directive's clauses through the end of the directive line,
    /// handing each clause name and its span to `clause`.
    fn clauses(
        &mut self,
        mut clause: impl FnMut(&mut Self, &str, Span) -> Result<(), Diag>,
    ) -> Result<(), Diag> {
        while !matches!(self.peek(), Tok::PragmaEnd | Tok::Eof) {
            let (name, span) = self.expect_ident()?;
            clause(self, &name, span)?;
        }
        self.bump(); // PragmaEnd
        Ok(())
    }

    /// Parse the statement a loop directive governs, which must be a `for`
    /// loop, and attach `dir` to it. `written` names the directive.
    fn directed_for(&mut self, dir: LoopDirective, written: &str) -> Result<Stmt, Diag> {
        let s = self.stmt()?;
        match s.kind {
            StmtKind::For(mut f) => {
                f.directive = Some(dir);
                Ok(Stmt {
                    kind: StmtKind::For(f),
                    span: s.span,
                })
            }
            _ => Err(Diag::new(
                format!("`{written}` must be followed by a for loop"),
                s.span,
            )),
        }
    }

    /// Skip the optional balanced `( ... )` argument of a clause that is
    /// recognized but has no effect here.
    fn skip_clause_args(&mut self, span: Span) -> Result<(), Diag> {
        if self.eat_punct("(") {
            let mut depth = 1;
            while depth > 0 {
                match self.bump().tok {
                    Tok::Punct("(") => depth += 1,
                    Tok::Punct(")") => depth -= 1,
                    Tok::Eof | Tok::PragmaEnd => {
                        return Err(Diag::new("unterminated clause args", span))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The `(n)` of a `collapse` clause: a positive integer literal.
    fn collapse_arg(&mut self, span: Span) -> Result<u32, Diag> {
        match self.paren_expr()?.kind {
            ExprKind::IntLit(n) if n >= 1 => Ok(n as u32),
            _ => Err(Diag::new(
                "collapse argument must be a positive integer literal",
                span,
            )),
        }
    }

    fn paren_expr(&mut self) -> Result<Expr, Diag> {
        self.expect_punct("(")?;
        let e = self.expr()?;
        self.expect_punct(")")?;
        Ok(e)
    }

    fn name_list(&mut self) -> Result<Vec<NameItem>, Diag> {
        self.expect_punct("(")?;
        let mut names = Vec::new();
        loop {
            let (name, span) = self.expect_ident()?;
            names.push(NameItem { name, span });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(names)
    }

    /// `( list )` of an OpenACC data clause; see [`Parser::data_list`].
    fn data_items(&mut self, dir: DataDir, out: &mut Vec<DataItem>) -> Result<(), Diag> {
        self.expect_punct("(")?;
        self.data_list(dir, out)?;
        self.expect_punct(")")?;
        Ok(())
    }

    /// The array list of a data clause or an OpenMP `map`: names, each
    /// with optional subranges `[lo:len][...]` that are parsed and dropped
    /// (whole arrays move).
    fn data_list(&mut self, dir: DataDir, out: &mut Vec<DataItem>) -> Result<(), Diag> {
        loop {
            let (name, span) = self.expect_ident()?;
            while self.eat_punct("[") {
                let _ = self.expr()?;
                if self.eat_punct(":") {
                    let _ = self.expr()?;
                }
                self.expect_punct("]")?;
            }
            out.push(DataItem { dir, name, span });
            if !self.eat_punct(",") {
                return Ok(());
            }
        }
    }

    fn reduction_clause(&mut self, span: Span) -> Result<Vec<ReductionClause>, Diag> {
        self.expect_punct("(")?;
        // operator token: punct or ident (max/min)
        let op_span = self.span();
        let op = match self.bump().tok {
            Tok::Punct(p) => RedOp::from_clause_token(p),
            Tok::Ident(s) => RedOp::from_clause_token(&s),
            _ => None,
        }
        .ok_or_else(|| {
            Diag::new("invalid reduction operator", op_span)
                .with_note_at("in this `reduction` clause", span)
        })?;
        self.expect_punct(":")?;
        let mut rs = Vec::new();
        loop {
            let (var, vspan) = self.expect_ident()?;
            rs.push(ReductionClause {
                op,
                var,
                span: vspan,
            });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(rs)
    }

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, Diag> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Punct("{") => {
                self.bump();
                let mut stmts = Vec::new();
                while !self.eat_punct("}") {
                    if matches!(self.peek(), Tok::Eof) {
                        return Err(Diag::new("unterminated block", span));
                    }
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt {
                    kind: StmtKind::Block(stmts),
                    span,
                })
            }
            Tok::PragmaStart => {
                let (dir, written) = self.loop_directive()?;
                let s = self.directed_for(dir, written)?;
                Ok(Stmt { span, ..s })
            }
            Tok::Ident(s) if s == "if" => self.if_stmt(),
            Tok::Ident(s) if s == "for" => self.for_stmt(None),
            Tok::Ident(s) if CType::from_name(&s).is_some() => self.decl_stmt(),
            _ => self.expr_stmt(),
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, Diag> {
        let span = self.span();
        let (tyname, _) = self.expect_ident()?;
        let ty = CType::from_name(&tyname).expect("checked by caller");
        let (name, _) = self.expect_ident()?;
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            dims.push(self.expr()?);
            self.expect_punct("]")?;
        }
        let init = if self.eat_punct("=") {
            Some(self.expr()?)
        } else {
            None
        };
        if init.is_some() && !dims.is_empty() {
            return Err(Diag::new("array initializers are not supported", span));
        }
        self.expect_punct(";")?;
        Ok(Stmt {
            kind: StmtKind::Decl {
                ty,
                name,
                dims,
                init,
            },
            span,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diag> {
        let span = self.span();
        self.bump(); // if
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then = self.stmt_as_block()?;
        let els = if self.eat_ident("else") {
            self.stmt_as_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt {
            kind: StmtKind::If { cond, then, els },
            span,
        })
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, Diag> {
        let s = self.stmt()?;
        Ok(match s.kind {
            StmtKind::Block(v) => v,
            _ => vec![s],
        })
    }

    fn for_stmt(&mut self, directive: Option<LoopDirective>) -> Result<Stmt, Diag> {
        let span = self.span();
        self.bump(); // for
        self.expect_punct("(")?;
        // init: [type] var = expr
        let decl_ty = self.at_type_keyword();
        if decl_ty.is_some() {
            self.bump();
        }
        let (var, var_span) = self.expect_ident()?;
        self.expect_punct("=")?;
        let init = self.expr()?;
        self.expect_punct(";")?;
        // cond: var <cmp> bound
        let (cvar, cspan) = self.expect_ident()?;
        if cvar != var {
            return Err(Diag::new(
                format!("loop condition must test the loop variable `{var}`"),
                cspan,
            ));
        }
        let cmp = match self.bump().tok {
            Tok::Punct("<") => BinOpKind::Lt,
            Tok::Punct("<=") => BinOpKind::Le,
            Tok::Punct(">") => BinOpKind::Gt,
            Tok::Punct(">=") => BinOpKind::Ge,
            t => {
                return Err(Diag::new(
                    format!("unsupported loop comparison {}", describe(&t)),
                    cspan,
                ))
            }
        };
        let bound = self.expr()?;
        self.expect_punct(";")?;
        // incr: var++ | var-- | ++var | --var | var += e | var -= e
        let step = self.for_incr(&var)?;
        self.expect_punct(")")?;
        let body = self.stmt_as_block()?;
        Ok(Stmt {
            kind: StmtKind::For(ForLoop {
                var,
                var_span,
                decl_ty,
                init,
                cmp,
                bound,
                step,
                directive,
                body,
            }),
            span,
        })
    }

    fn for_incr(&mut self, var: &str) -> Result<Expr, Diag> {
        let span = self.span();
        let one = Expr::new(ExprKind::IntLit(1), span);
        let neg_one = Expr::new(ExprKind::IntLit(-1), span);
        // prefix forms
        if self.eat_punct("++") {
            let (v, s) = self.expect_ident()?;
            if v != var {
                return Err(Diag::new("increment must update the loop variable", s));
            }
            return Ok(one);
        }
        if self.eat_punct("--") {
            let (v, s) = self.expect_ident()?;
            if v != var {
                return Err(Diag::new("increment must update the loop variable", s));
            }
            return Ok(neg_one);
        }
        let (v, s) = self.expect_ident()?;
        if v != var {
            return Err(Diag::new("increment must update the loop variable", s));
        }
        if self.eat_punct("++") {
            Ok(one)
        } else if self.eat_punct("--") {
            Ok(neg_one)
        } else if self.eat_punct("+=") {
            self.expr()
        } else if self.eat_punct("-=") {
            let e = self.expr()?;
            let sp = e.span;
            Ok(Expr::new(
                ExprKind::Un {
                    op: UnOpKind::Neg,
                    operand: Box::new(e),
                },
                sp,
            ))
        } else if self.eat_punct("=") {
            // var = var + c  |  var = var - c
            let e = self.expr()?;
            match &e.kind {
                ExprKind::Bin {
                    op: BinOpKind::Add,
                    lhs,
                    rhs,
                } => match (&lhs.kind, &rhs.kind) {
                    (ExprKind::Ident(n), _) if n == var => Ok((**rhs).clone()),
                    (_, ExprKind::Ident(n)) if n == var => Ok((**lhs).clone()),
                    _ => Err(Diag::new("unsupported loop increment", s)),
                },
                ExprKind::Bin {
                    op: BinOpKind::Sub,
                    lhs,
                    rhs,
                } => match &lhs.kind {
                    ExprKind::Ident(n) if n == var => {
                        let sp = rhs.span;
                        Ok(Expr::new(
                            ExprKind::Un {
                                op: UnOpKind::Neg,
                                operand: rhs.clone(),
                            },
                            sp,
                        ))
                    }
                    _ => Err(Diag::new("unsupported loop increment", s)),
                },
                _ => Err(Diag::new("unsupported loop increment", s)),
            }
        } else {
            Err(Diag::new("unsupported loop increment", s))
        }
    }

    fn expr_stmt(&mut self) -> Result<Stmt, Diag> {
        let span = self.span();
        // lvalue [op]= rhs ;   or   name++/-- ;
        let lv = self.lvalue()?;
        if let LValue::Var(name) = &lv {
            if self.eat_punct("++") {
                self.expect_punct(";")?;
                return Ok(Stmt {
                    kind: StmtKind::IncDec {
                        name: name.clone(),
                        inc: true,
                    },
                    span,
                });
            }
            if self.eat_punct("--") {
                self.expect_punct(";")?;
                return Ok(Stmt {
                    kind: StmtKind::IncDec {
                        name: name.clone(),
                        inc: false,
                    },
                    span,
                });
            }
        }
        let t = self.bump().tok;
        let op = match t {
            Tok::Punct(p) => AssignOp::ALL.into_iter().find(|op| op.token() == p),
            _ => None,
        };
        let Some(op) = op else {
            return Err(Diag::new(
                format!("expected assignment operator, found {}", describe(&t)),
                span,
            ));
        };
        let rhs = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt {
            kind: StmtKind::Assign { op, lhs: lv, rhs },
            span,
        })
    }

    fn lvalue(&mut self) -> Result<LValue, Diag> {
        let (name, _) = self.expect_ident()?;
        if matches!(self.peek(), Tok::Punct("[")) {
            let mut indices = Vec::new();
            while self.eat_punct("[") {
                indices.push(self.expr()?);
                self.expect_punct("]")?;
            }
            Ok(LValue::Elem {
                base: name,
                indices,
            })
        } else {
            Ok(LValue::Var(name))
        }
    }

    // ---- expressions (precedence climbing) --------------------------------

    fn expr(&mut self) -> Result<Expr, Diag> {
        if self.expr_depth >= MAX_EXPR_DEPTH {
            return Err(Diag::new("expression nesting too deep", self.span()));
        }
        self.expr_depth += 1;
        let r = self.ternary();
        self.expr_depth -= 1;
        r
    }

    fn ternary(&mut self) -> Result<Expr, Diag> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let then = self.expr()?;
            self.expect_punct(":")?;
            let els = self.ternary()?;
            let span = cond.span.merge(els.span);
            Ok(Expr::new(
                ExprKind::Cond {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                },
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, Diag> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::Punct("*") => (BinOpKind::Mul, 10),
                Tok::Punct("/") => (BinOpKind::Div, 10),
                Tok::Punct("%") => (BinOpKind::Rem, 10),
                Tok::Punct("+") => (BinOpKind::Add, 9),
                Tok::Punct("-") => (BinOpKind::Sub, 9),
                Tok::Punct("<<") => (BinOpKind::Shl, 8),
                Tok::Punct(">>") => (BinOpKind::Shr, 8),
                Tok::Punct("<") => (BinOpKind::Lt, 7),
                Tok::Punct("<=") => (BinOpKind::Le, 7),
                Tok::Punct(">") => (BinOpKind::Gt, 7),
                Tok::Punct(">=") => (BinOpKind::Ge, 7),
                Tok::Punct("==") => (BinOpKind::Eq, 6),
                Tok::Punct("!=") => (BinOpKind::Ne, 6),
                Tok::Punct("&") => (BinOpKind::BitAnd, 5),
                Tok::Punct("^") => (BinOpKind::BitXor, 4),
                Tok::Punct("|") => (BinOpKind::BitOr, 3),
                Tok::Punct("&&") => (BinOpKind::LogAnd, 2),
                Tok::Punct("||") => (BinOpKind::LogOr, 1),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diag> {
        let span = self.span();
        if self.eat_punct("-") {
            let e = self.unary()?;
            let sp = span.merge(e.span);
            return Ok(Expr::new(
                ExprKind::Un {
                    op: UnOpKind::Neg,
                    operand: Box::new(e),
                },
                sp,
            ));
        }
        if self.eat_punct("!") {
            let e = self.unary()?;
            let sp = span.merge(e.span);
            return Ok(Expr::new(
                ExprKind::Un {
                    op: UnOpKind::Not,
                    operand: Box::new(e),
                },
                sp,
            ));
        }
        if self.eat_punct("~") {
            let e = self.unary()?;
            let sp = span.merge(e.span);
            return Ok(Expr::new(
                ExprKind::Un {
                    op: UnOpKind::BitNot,
                    operand: Box::new(e),
                },
                sp,
            ));
        }
        if self.eat_punct("+") {
            return self.unary();
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, Diag> {
        let span = self.span();
        match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::IntLit(v), span))
            }
            Tok::FloatLit(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::FloatLit(v), span))
            }
            Tok::Punct("(") => {
                self.bump();
                // cast? `(type) expr`
                if let Some(ty) = self.at_type_keyword() {
                    if matches!(self.peek2(), Tok::Punct(")")) {
                        self.bump(); // type
                        self.bump(); // )
                        let e = self.unary()?;
                        let sp = span.merge(e.span);
                        return Ok(Expr::new(
                            ExprKind::Cast {
                                ty,
                                operand: Box::new(e),
                            },
                            sp,
                        ));
                    }
                }
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        self.expect_punct(")")?;
                    }
                    return Ok(Expr::new(ExprKind::Call { name, args }, span));
                }
                if matches!(self.peek(), Tok::Punct("[")) {
                    let mut indices = Vec::new();
                    while self.eat_punct("[") {
                        indices.push(self.expr()?);
                        self.expect_punct("]")?;
                    }
                    let sp = span.merge(indices.last().map(|e| e.span).unwrap_or(span));
                    return Ok(Expr::new(
                        ExprKind::Index {
                            base: name,
                            indices,
                        },
                        sp,
                    ));
                }
                Ok(Expr::new(ExprKind::Ident(name), span))
            }
            t => Err(Diag::new(
                format!("expected expression, found {}", describe(&t)),
                span,
            )),
        }
    }
}

/// A construct with no clauses and no body yet.
fn empty_construct(is_kernels: bool, span: Span) -> ParallelConstruct {
    ParallelConstruct {
        is_kernels,
        num_gangs: None,
        num_workers: None,
        vector_length: None,
        data: Vec::new(),
        reductions: Vec::new(),
        privates: Vec::new(),
        body: Vec::new(),
        span,
    }
}

/// The direction an OpenACC data clause moves its arrays in.
fn data_dir(clause: &str) -> Option<DataDir> {
    Some(match clause {
        "copyin" => DataDir::CopyIn,
        "copyout" => DataDir::CopyOut,
        "copy" => DataDir::Copy,
        "create" => DataDir::Create,
        "present" => DataDir::Present,
        _ => return None,
    })
}

fn describe(t: &Tok) -> String {
    match t {
        Tok::Ident(s) => format!("identifier `{s}`"),
        Tok::IntLit(v) => format!("integer `{v}`"),
        Tok::FloatLit(v) => format!("float `{v}`"),
        Tok::Punct(p) => format!("`{p}`"),
        Tok::PragmaStart => "`#pragma`".to_string(),
        Tok::PragmaEnd => "end of directive".to_string(),
        Tok::Eof => "end of input".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Bin {
                op: BinOpKind::Add,
                rhs,
                ..
            } => {
                assert!(matches!(
                    rhs.kind,
                    ExprKind::Bin {
                        op: BinOpKind::Mul,
                        ..
                    }
                ));
            }
            _ => panic!("wrong tree"),
        }
        let e = parse_expr("a < b && c < d").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Bin {
                op: BinOpKind::LogAnd,
                ..
            }
        ));
    }

    #[test]
    fn parses_casts_calls_subscripts() {
        let e = parse_expr("(float)x").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Cast {
                ty: CType::Float,
                ..
            }
        ));
        let e = parse_expr("fmax(a, b)").unwrap();
        assert!(
            matches!(e.kind, ExprKind::Call { ref name, ref args } if name=="fmax" && args.len()==2)
        );
        let e = parse_expr("a[i][j+1]").unwrap();
        assert!(
            matches!(e.kind, ExprKind::Index { ref base, ref indices } if base=="a" && indices.len()==2)
        );
        let e = parse_expr("x > 0 ? x : -x").unwrap();
        assert!(matches!(e.kind, ExprKind::Cond { .. }));
    }

    #[test]
    fn parses_simple_region() {
        let src = r#"
            int N;
            float a[N];
            float sum;
            #pragma acc parallel copyin(a) num_gangs(4) vector_length(32)
            {
                #pragma acc loop gang vector reduction(+:sum)
                for (int i = 0; i < N; i++) {
                    sum += a[i];
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 3);
        assert_eq!(p.regions.len(), 1);
        let r = &p.regions[0];
        assert!(r.num_gangs.is_some());
        assert!(r.vector_length.is_some());
        assert_eq!(r.data.len(), 1);
        assert_eq!(r.body.len(), 1);
        match &r.body[0].kind {
            StmtKind::For(f) => {
                let d = f.directive.as_ref().unwrap();
                assert_eq!(d.levels, vec![Level::Gang, Level::Vector]);
                assert_eq!(d.reductions.len(), 1);
                assert_eq!(d.reductions[0].op, RedOp::Add);
                assert_eq!(d.reductions[0].var, "sum");
                assert_eq!(f.var, "i");
                assert_eq!(f.cmp, BinOpKind::Lt);
            }
            _ => panic!("expected for loop"),
        }
    }

    #[test]
    fn parses_triple_nest_with_pragmas() {
        let src = r#"
            int NK; int NJ; int NI;
            float input[NK][NJ][NI];
            float temp[NK][NJ][NI];
            #pragma acc parallel copyin(input) copyout(temp)
            {
                #pragma acc loop gang
                for (int k = 0; k < NK; k++) {
                    int j_sum = k;
                    #pragma acc loop worker reduction(+:j_sum)
                    for (int j = 0; j < NJ; j++) {
                        #pragma acc loop vector
                        for (int i = 0; i < NI; i++) {
                            temp[k][j][i] = input[k][j][i];
                        }
                        j_sum += temp[k][j][0];
                    }
                    temp[k][0][0] = j_sum;
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        let r = &p.regions[0];
        match &r.body[0].kind {
            StmtKind::For(k) => {
                assert_eq!(k.directive.as_ref().unwrap().levels, vec![Level::Gang]);
                // find nested worker loop
                let mut found_worker = false;
                for s in &k.body {
                    if let StmtKind::For(j) = &s.kind {
                        let d = j.directive.as_ref().unwrap();
                        assert_eq!(d.levels, vec![Level::Worker]);
                        assert_eq!(d.reductions[0].var, "j_sum");
                        found_worker = true;
                    }
                }
                assert!(found_worker);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_combined_parallel_loop() {
        let src = r#"
            int n;
            float x[n]; float y[n];
            int m;
            #pragma acc parallel loop gang vector reduction(+:m) copyin(x, y)
            for (int i = 0; i < n; i++) {
                if (x[i]*x[i] + y[i]*y[i] < 1.0) {
                    m += 1;
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        let r = &p.regions[0];
        match &r.body[0].kind {
            StmtKind::For(f) => {
                let d = f.directive.as_ref().unwrap();
                assert_eq!(d.levels, vec![Level::Gang, Level::Vector]);
                assert_eq!(d.reductions[0].var, "m");
            }
            _ => panic!(),
        }
        assert_eq!(r.data.len(), 2);
    }

    #[test]
    fn parses_for_increment_forms() {
        for incr in ["i++", "++i", "i += 1", "i = i + 1", "i = 1 + i"] {
            let src = format!("int n; int s;\n#pragma acc parallel\n{{\n#pragma acc loop gang reduction(+:s)\nfor (int i = 0; i < n; {incr}) {{ s += 1; }} }}");
            let p = parse_program(&src).unwrap();
            match &p.regions[0].body[0].kind {
                StmtKind::For(f) => assert!(matches!(f.step.kind, ExprKind::IntLit(1))),
                _ => panic!(),
            }
        }
        // downward loop
        let src = "int n; int s;\n#pragma acc parallel\n{\n#pragma acc loop gang reduction(+:s)\nfor (int i = n; i > 0; i--) { s += 1; } }";
        let p = parse_program(src).unwrap();
        match &p.regions[0].body[0].kind {
            StmtKind::For(f) => {
                assert_eq!(f.cmp, BinOpKind::Gt);
                assert!(matches!(f.step.kind, ExprKind::IntLit(-1)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_subrange_data_clauses() {
        let src = "int n; float a[n];\n#pragma acc parallel copyin(a[0:n])\n{\n#pragma acc loop gang\nfor (int i = 0; i < n; i++) { a[i] = 0.0; } }";
        let p = parse_program(src).unwrap();
        assert_eq!(p.regions[0].data[0].name, "a");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse_program("float x;").is_err(), "no region");
        assert!(
            parse_program("#pragma acc loop gang\nfor(;;){}").is_err(),
            "loop at top level"
        );
        assert!(
            parse_program("int n;\n#pragma acc parallel bogus_clause(3)\n{ }").is_err(),
            "unknown clause"
        );
        assert!(
            parse_program(
                "int n; int s;\n#pragma acc parallel\n{\n#pragma acc loop gang reduction(-:s)\nfor (int i=0;i<n;i++) {s += 1;} }"
            )
            .is_err(),
            "invalid reduction operator"
        );
        // non-canonical loop: condition on wrong variable
        assert!(parse_program(
            "int n;\n#pragma acc parallel\n{\n#pragma acc loop gang\nfor (int i = 0; n < 10; i++) { } }"
        )
        .is_err());
    }

    #[test]
    fn parses_if_else_and_incdec() {
        let src = r#"
            int n; int c;
            #pragma acc parallel
            {
                #pragma acc loop gang reduction(+:c)
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) { c++; } else { c--; }
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        match &p.regions[0].body[0].kind {
            StmtKind::For(f) => match &f.body[0].kind {
                StmtKind::If { then, els, .. } => {
                    assert!(matches!(then[0].kind, StmtKind::IncDec { inc: true, .. }));
                    assert!(matches!(els[0].kind, StmtKind::IncDec { inc: false, .. }));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn kernels_construct_accepted() {
        let src = "int n; float a[n];\n#pragma acc kernels copyin(a)\n{\n#pragma acc loop gang\nfor (int i = 0; i < n; i++) { a[i] = 1.0; } }";
        let p = parse_program(src).unwrap();
        assert!(p.regions[0].is_kernels);
    }
}
