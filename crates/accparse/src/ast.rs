//! Abstract syntax tree for the mini-C + OpenACC dialect.

use crate::diag::Span;
pub use crate::reduction::RedOp;
use std::fmt;

/// C scalar types supported in kernels (the paper's testsuite data types
/// plus `long`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CType {
    Int,
    Long,
    Float,
    Double,
}

impl CType {
    /// Parse a C type name.
    pub fn from_name(s: &str) -> Option<CType> {
        match s {
            "int" => Some(CType::Int),
            "long" => Some(CType::Long),
            "float" => Some(CType::Float),
            "double" => Some(CType::Double),
            _ => None,
        }
    }

    /// Size in bytes.
    pub fn size(self) -> usize {
        match self {
            CType::Int | CType::Float => 4,
            CType::Long | CType::Double => 8,
        }
    }

    /// True for `float`/`double`.
    pub fn is_float(self) -> bool {
        matches!(self, CType::Float | CType::Double)
    }

    /// C usual-arithmetic-conversions result type of two operands.
    pub fn promote(a: CType, b: CType) -> CType {
        use CType::*;
        match (a, b) {
            (Double, _) | (_, Double) => Double,
            (Float, _) | (_, Float) => Float,
            (Long, _) | (_, Long) => Long,
            _ => Int,
        }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CType::Int => "int",
            CType::Long => "long",
            CType::Float => "float",
            CType::Double => "double",
        };
        f.write_str(s)
    }
}

/// Binary operators in the surface language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOpKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LogAnd,
    LogOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOpKind {
    Neg,
    Not,
    BitNot,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit(f64),
    Ident(String),
    /// `base[i][j]...` — multi-dimensional subscript.
    Index {
        base: String,
        indices: Vec<Expr>,
    },
    Un {
        op: UnOpKind,
        operand: Box<Expr>,
    },
    Bin {
        op: BinOpKind,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `cond ? a : b`
    Cond {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    /// `f(args...)` — intrinsic math call.
    Call {
        name: String,
        args: Vec<Expr>,
    },
    /// `(type)expr`
    Cast {
        ty: CType,
        operand: Box<Expr>,
    },
}

impl Expr {
    /// Construct an expression with a span.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }
}

/// Assignment operators (`=`, `+=`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl AssignOp {
    /// Every assignment operator.
    pub const ALL: [AssignOp; 11] = [
        AssignOp::Assign,
        AssignOp::Add,
        AssignOp::Sub,
        AssignOp::Mul,
        AssignOp::Div,
        AssignOp::Rem,
        AssignOp::And,
        AssignOp::Or,
        AssignOp::Xor,
        AssignOp::Shl,
        AssignOp::Shr,
    ];

    /// The binary operator a compound assignment applies; `None` for `=`.
    pub fn bin_op(self) -> Option<BinOpKind> {
        match self {
            AssignOp::Assign => None,
            AssignOp::Add => Some(BinOpKind::Add),
            AssignOp::Sub => Some(BinOpKind::Sub),
            AssignOp::Mul => Some(BinOpKind::Mul),
            AssignOp::Div => Some(BinOpKind::Div),
            AssignOp::Rem => Some(BinOpKind::Rem),
            AssignOp::And => Some(BinOpKind::BitAnd),
            AssignOp::Or => Some(BinOpKind::BitOr),
            AssignOp::Xor => Some(BinOpKind::BitXor),
            AssignOp::Shl => Some(BinOpKind::Shl),
            AssignOp::Shr => Some(BinOpKind::Shr),
        }
    }

    /// The source spelling (`+=`, `<<=`, ...).
    pub fn token(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::And => "&=",
            AssignOp::Or => "|=",
            AssignOp::Xor => "^=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
        }
    }
}

/// An lvalue: a scalar variable or an array element.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    Var(String),
    Elem { base: String, indices: Vec<Expr> },
}

impl LValue {
    /// The root variable name.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) => n,
            LValue::Elem { base, .. } => base,
        }
    }
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // ForLoop dominates; stmts are built once
pub enum StmtKind {
    /// `type name = init;` or `type name[d0][d1];`
    Decl {
        ty: CType,
        name: String,
        dims: Vec<Expr>,
        init: Option<Expr>,
    },
    /// `lhs <op>= rhs;`
    Assign {
        op: AssignOp,
        lhs: LValue,
        rhs: Expr,
    },
    /// `name++;` / `name--;`
    IncDec { name: String, inc: bool },
    /// `if (cond) then [else els]`
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    /// A `for` loop, possibly carrying an `acc loop` directive.
    For(ForLoop),
    /// `{ ... }`
    Block(Vec<Stmt>),
}

/// A `for` loop with its optional loop directive.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    /// Loop variable name (must be assigned in the init clause).
    pub var: String,
    /// Source span of the loop-variable name in the init clause.
    pub var_span: Span,
    /// Set if the init clause declares the variable (`for (int i = ...`).
    pub decl_ty: Option<CType>,
    /// Initial value expression.
    pub init: Expr,
    /// Condition: `var < bound` / `var <= bound` / `var > bound` / `var >= bound`.
    pub cmp: BinOpKind,
    /// Loop bound expression.
    pub bound: Expr,
    /// Step expression (from `i++`, `i += c`, `i--`, `i -= c`); negative for
    /// downward loops.
    pub step: Expr,
    /// The attached `#pragma acc loop` directive, if any.
    pub directive: Option<LoopDirective>,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// One `reduction(op: a, b, c)` clause entry, flattened per variable.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionClause {
    pub op: RedOp,
    pub var: String,
    pub span: Span,
}

/// The parallelism levels of a `loop` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    Gang,
    Worker,
    Vector,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::Gang => "gang",
            Level::Worker => "worker",
            Level::Vector => "vector",
        };
        f.write_str(s)
    }
}

/// A `#pragma acc loop ...` directive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopDirective {
    /// Parallelism levels named on the directive, in source order.
    pub levels: Vec<Level>,
    /// `seq` forces sequential execution.
    pub seq: bool,
    /// `collapse(n)` — fuse the next `n` perfectly nested loops.
    pub collapse: Option<u32>,
    /// `reduction(op: vars)` clauses.
    pub reductions: Vec<ReductionClause>,
    /// `private(vars)` clauses.
    pub privates: Vec<NameItem>,
    pub span: Span,
}

/// A bare name inside a clause list (`private(x, y)`), with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct NameItem {
    pub name: String,
    pub span: Span,
}

/// Data-movement direction of a data clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataDir {
    CopyIn,
    CopyOut,
    Copy,
    Create,
    Present,
}

/// One item of a data clause: `name` or `name[start:len]` (the subrange is
/// parsed but whole-array movement is performed, as OpenUH does for
/// contiguous data).
#[derive(Debug, Clone, PartialEq)]
pub struct DataItem {
    pub dir: DataDir,
    pub name: String,
    pub span: Span,
}

/// A `#pragma acc parallel ...` (or `kernels`) construct.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConstruct {
    /// True when spelled `kernels` (treated identically by this compiler).
    pub is_kernels: bool,
    pub num_gangs: Option<Expr>,
    pub num_workers: Option<Expr>,
    pub vector_length: Option<Expr>,
    pub data: Vec<DataItem>,
    /// Reductions on the `parallel` construct itself (OpenACC allows this;
    /// applied to the outermost gang loop).
    pub reductions: Vec<ReductionClause>,
    pub privates: Vec<NameItem>,
    pub body: Vec<Stmt>,
    pub span: Span,
}

/// A structured `#pragma acc data` region: its clauses govern the device
/// residency of arrays across the parallel regions it encloses
/// (`regions[first_region..end_region]`).
#[derive(Debug, Clone, PartialEq)]
pub struct DataBlock {
    pub items: Vec<DataItem>,
    /// Index of the first enclosed parallel region.
    pub first_region: usize,
    /// One past the last enclosed parallel region.
    pub end_region: usize,
    pub span: Span,
}

/// A whole translation unit: host declarations followed by one or more
/// parallel constructs, optionally grouped under `data` constructs.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Host-side declarations (scalars bound by the host, arrays with dims).
    pub decls: Vec<Stmt>,
    /// Parallel regions, in order.
    pub regions: Vec<ParallelConstruct>,
    /// Structured data regions (possibly nested), in source order.
    pub data_blocks: Vec<DataBlock>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctype_parse_and_promote() {
        assert_eq!(CType::from_name("int"), Some(CType::Int));
        assert_eq!(CType::from_name("double"), Some(CType::Double));
        assert_eq!(CType::from_name("char"), None);
        assert_eq!(CType::promote(CType::Int, CType::Float), CType::Float);
        assert_eq!(CType::promote(CType::Long, CType::Int), CType::Long);
        assert_eq!(CType::promote(CType::Float, CType::Double), CType::Double);
        assert_eq!(CType::promote(CType::Int, CType::Int), CType::Int);
    }

    #[test]
    fn lvalue_base() {
        let v = LValue::Var("x".into());
        assert_eq!(v.base(), "x");
        let e = LValue::Elem {
            base: "a".into(),
            indices: vec![],
        };
        assert_eq!(e.base(), "a");
    }

    #[test]
    fn level_ordering_matches_nesting() {
        assert!(Level::Gang < Level::Worker);
        assert!(Level::Worker < Level::Vector);
    }
}
