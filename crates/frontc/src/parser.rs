//! MinC recursive-descent parser.

use crate::ast::*;
use crate::lexer::{Lexer, Token, TokenKind};
use crate::FrontError;

/// Deepest nesting the parser accepts, counted over expressions (each
/// parenthesis, call argument, index, unary operator and ternary arm) and
/// statements (each block and `else if` link). Deeper input is refused with
/// a positioned error instead of exhausting the thread's stack — in
/// `hlod`, a worker thread shared by every client. C guarantees 63 levels
/// of parenthesized expressions; 64 levels cost well under a 2 MiB thread
/// stack even in an unoptimized build (~13 KiB per level there).
const MAX_NESTING: usize = 64;

/// Parses one module's source into an AST.
///
/// # Errors
/// Returns the first syntax error, with position.
pub fn parse_module(name: &str, src: &str) -> Result<ModuleAst, FrontError> {
    let tokens = Lexer::new(name, src).tokenize()?;
    let mut p = Parser {
        module: name.to_string(),
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    while !p.at(&TokenKind::Eof) {
        items.push(p.item()?);
    }
    Ok(ModuleAst {
        name: name.to_string(),
        items,
    })
}

struct Parser {
    module: String,
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn at(&self, k: &TokenKind) -> bool {
        self.peek() == k
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn err(&self, msg: impl Into<String>) -> FrontError {
        let t = &self.tokens[self.pos];
        FrontError {
            module: self.module.clone(),
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    /// Runs `f` one nesting level deeper, refusing to pass [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, FrontError>,
    ) -> Result<T, FrontError> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn expect(&mut self, k: TokenKind, what: &str) -> Result<(), FrontError> {
        if self.at(&k) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, FrontError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn const_int(&mut self) -> Result<i64, FrontError> {
        let neg = if self.at(&TokenKind::Minus) {
            self.bump();
            true
        } else {
            false
        };
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(if neg { v.wrapping_neg() } else { v })
            }
            other => Err(self.err(format!("expected integer constant, found {other:?}"))),
        }
    }

    // ----- items -----

    fn item(&mut self) -> Result<Item, FrontError> {
        let mut attrs = FnAttrs::default();
        while self.at(&TokenKind::HashBracket) {
            self.bump();
            let name = self.ident("attribute name")?;
            match name.as_str() {
                "noinline" => attrs.noinline = true,
                "inline" => attrs.inline_hint = true,
                "strict_fp" => attrs.strict_fp = true,
                other => return Err(self.err(format!("unknown attribute `{other}`"))),
            }
            self.expect(TokenKind::RBracket, "`]`")?;
        }
        let is_static = if self.at(&TokenKind::Static) {
            self.bump();
            true
        } else {
            false
        };
        match self.peek() {
            TokenKind::Fn => self.fn_def(is_static, attrs).map(Item::Fn),
            TokenKind::Global => {
                if attrs != FnAttrs::default() {
                    return Err(self.err("attributes are only valid on functions"));
                }
                self.global_def(is_static).map(Item::Global)
            }
            TokenKind::Extern => {
                if is_static || attrs != FnAttrs::default() {
                    return Err(self.err("extern declarations take no modifiers"));
                }
                self.extern_decl().map(Item::Extern)
            }
            other => Err(self.err(format!(
                "expected `fn`, `global` or `extern`, found {other:?}"
            ))),
        }
    }

    fn fn_def(&mut self, is_static: bool, attrs: FnAttrs) -> Result<FnDef, FrontError> {
        let line = self.tokens[self.pos].line;
        self.expect(TokenKind::Fn, "`fn`")?;
        let name = self.ident("function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.ident("parameter name")?);
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        let body = self.block()?;
        Ok(FnDef {
            name,
            is_static,
            attrs,
            params,
            body,
            line,
        })
    }

    fn global_def(&mut self, is_static: bool) -> Result<GlobalDef, FrontError> {
        let line = self.tokens[self.pos].line;
        self.expect(TokenKind::Global, "`global`")?;
        let name = self.ident("global name")?;
        let words = if self.at(&TokenKind::LBracket) {
            self.bump();
            let n = self.const_int()?;
            self.expect(TokenKind::RBracket, "`]`")?;
            if n <= 0 {
                return Err(self.err("array size must be positive"));
            }
            n as u32
        } else {
            1
        };
        let mut init = Vec::new();
        if self.at(&TokenKind::Assign) {
            self.bump();
            if self.at(&TokenKind::LBrace) {
                self.bump();
                if !self.at(&TokenKind::RBrace) {
                    loop {
                        init.push(self.const_int()?);
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBrace, "`}`")?;
            } else {
                init.push(self.const_int()?);
            }
        }
        self.expect(TokenKind::Semi, "`;`")?;
        if init.len() > words as usize {
            return Err(self.err("more initializers than array words"));
        }
        Ok(GlobalDef {
            name,
            is_static,
            words,
            init,
            line,
        })
    }

    fn extern_decl(&mut self) -> Result<ExternDecl, FrontError> {
        self.expect(TokenKind::Extern, "`extern`")?;
        self.expect(TokenKind::Fn, "`fn`")?;
        let name = self.ident("extern name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let arity = if self.at(&TokenKind::RParen) {
            0
        } else {
            let n = self.const_int()?;
            if n < 0 {
                return Err(self.err("arity must be non-negative"));
            }
            n as u32
        };
        self.expect(TokenKind::RParen, "`)`")?;
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(ExternDecl { name, arity })
    }

    // ----- statements -----

    fn block(&mut self) -> Result<Vec<Stmt>, FrontError> {
        self.nested(|p| {
            p.expect(TokenKind::LBrace, "`{`")?;
            let mut stmts = Vec::new();
            while !p.at(&TokenKind::RBrace) {
                if p.at(&TokenKind::Eof) {
                    return Err(p.err("unterminated block"));
                }
                stmts.push(p.stmt()?);
            }
            p.bump();
            Ok(stmts)
        })
    }

    fn stmt(&mut self) -> Result<Stmt, FrontError> {
        match self.peek().clone() {
            TokenKind::Var => {
                self.bump();
                let name = self.ident("variable name")?;
                if self.at(&TokenKind::LBracket) {
                    self.bump();
                    let n = self.const_int()?;
                    self.expect(TokenKind::RBracket, "`]`")?;
                    self.expect(TokenKind::Semi, "`;`")?;
                    if n <= 0 {
                        return Err(self.err("array size must be positive"));
                    }
                    Ok(Stmt::ArrayDecl {
                        name,
                        words: n as u32,
                    })
                } else {
                    let init = if self.at(&TokenKind::Assign) {
                        self.bump();
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(TokenKind::Semi, "`;`")?;
                    Ok(Stmt::VarDecl { name, init })
                }
            }
            TokenKind::If => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                let then_ = self.block()?;
                let else_ = if self.at(&TokenKind::Else) {
                    self.bump();
                    if self.at(&TokenKind::If) {
                        vec![self.nested(Self::stmt)?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then_, else_ })
            }
            TokenKind::While => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::For => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let init = if self.at(&TokenKind::Semi) {
                    self.bump();
                    None
                } else {
                    let s = self.simple_stmt_no_semi()?;
                    self.expect(TokenKind::Semi, "`;`")?;
                    Some(Box::new(s))
                };
                let cond = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi, "`;`")?;
                let step = if self.at(&TokenKind::RParen) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_no_semi()?))
                };
                self.expect(TokenKind::RParen, "`)`")?;
                let body = self.block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            TokenKind::Return => {
                self.bump();
                let v = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(Stmt::Return(v))
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(Stmt::Break)
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(Stmt::Continue)
            }
            _ => {
                let s = self.simple_stmt_no_semi()?;
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(s)
            }
        }
    }

    /// Assignment or expression statement without the trailing `;`
    /// (shared by `for` headers and plain statements). `var` declarations
    /// are also allowed in `for` initializers.
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, FrontError> {
        if self.at(&TokenKind::Var) {
            self.bump();
            let name = self.ident("variable name")?;
            self.expect(TokenKind::Assign, "`=`")?;
            let init = Some(self.expr()?);
            return Ok(Stmt::VarDecl { name, init });
        }
        let e = self.expr()?;
        if self.at(&TokenKind::Assign) {
            self.bump();
            let value = self.expr()?;
            let target = match e {
                Expr::Name(n) => LValue::Name(n),
                Expr::Index(b, i) => LValue::Index(b, i),
                _ => return Err(self.err("invalid assignment target")),
            };
            Ok(Stmt::Assign { target, value })
        } else {
            Ok(Stmt::Expr(e))
        }
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr, FrontError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, FrontError> {
        let c = self.binary(0)?;
        if self.at(&TokenKind::Question) {
            self.bump();
            let a = self.nested(Self::expr)?;
            self.expect(TokenKind::Colon, "`:`")?;
            let b = self.nested(Self::ternary)?;
            Ok(Expr::Ternary(Box::new(c), Box::new(a), Box::new(b)))
        } else {
            Ok(c)
        }
    }

    fn bin_op_of(k: &TokenKind) -> Option<(BinAst, u8)> {
        Some(match k {
            TokenKind::PipePipe => (BinAst::LogOr, 1),
            TokenKind::AmpAmp => (BinAst::LogAnd, 2),
            TokenKind::Pipe => (BinAst::Or, 3),
            TokenKind::Caret => (BinAst::Xor, 4),
            TokenKind::Amp => (BinAst::And, 5),
            TokenKind::EqEq => (BinAst::Eq, 6),
            TokenKind::NotEq => (BinAst::Ne, 6),
            TokenKind::Lt => (BinAst::Lt, 7),
            TokenKind::Le => (BinAst::Le, 7),
            TokenKind::Gt => (BinAst::Gt, 7),
            TokenKind::Ge => (BinAst::Ge, 7),
            TokenKind::Shl => (BinAst::Shl, 8),
            TokenKind::Shr => (BinAst::Shr, 8),
            TokenKind::Plus => (BinAst::Add, 9),
            TokenKind::Minus => (BinAst::Sub, 9),
            TokenKind::Star => (BinAst::Mul, 10),
            TokenKind::Slash => (BinAst::Div, 10),
            TokenKind::Percent => (BinAst::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, FrontError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_of(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, FrontError> {
        match self.peek().clone() {
            TokenKind::Minus => {
                self.bump();
                Ok(Expr::Un(UnAst::Neg, Box::new(self.nested(Self::unary)?)))
            }
            TokenKind::Tilde => {
                self.bump();
                Ok(Expr::Un(UnAst::Not, Box::new(self.nested(Self::unary)?)))
            }
            TokenKind::Bang => {
                self.bump();
                Ok(Expr::Un(UnAst::LogNot, Box::new(self.nested(Self::unary)?)))
            }
            TokenKind::Amp => {
                self.bump();
                let name = self.ident("symbol after `&`")?;
                Ok(Expr::AddrOf(name))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, FrontError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.nested(Self::expr)?);
                            if self.at(&TokenKind::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen, "`)`")?;
                    e = match e {
                        Expr::Name(n) if n.starts_with("__") => Expr::Intrinsic(n, args),
                        other => Expr::Call(Box::new(other), args),
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.nested(Self::expr)?;
                    self.expect(TokenKind::RBracket, "`]`")?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, FrontError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Ident(n) => {
                self.bump();
                Ok(Expr::Name(n))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ModuleAst {
        parse_module("t", src).unwrap()
    }

    #[test]
    fn parses_function_with_params() {
        let m = parse("fn add(a, b) { return a + b; }");
        match &m.items[0] {
            Item::Fn(f) => {
                assert_eq!(f.name, "add");
                assert_eq!(f.params, vec!["a", "b"]);
                assert_eq!(f.body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_binds_tighter() {
        let m = parse("fn f() { return 1 + 2 * 3; }");
        let Item::Fn(f) = &m.items[0] else { panic!() };
        match &f.body[0] {
            Stmt::Return(Some(Expr::Bin(BinAst::Add, _, rhs))) => {
                assert!(matches!(**rhs, Expr::Bin(BinAst::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_globals_with_initializers() {
        let m = parse("global x = 5; static global tab[3] = {1, 2, 3}; global z;");
        assert_eq!(m.items.len(), 3);
        match &m.items[1] {
            Item::Global(g) => {
                assert!(g.is_static);
                assert_eq!(g.words, 3);
                assert_eq!(g.init, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let m = parse(
            "fn f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { if (i % 2 == 0) { s = s + i; } else { continue; } } while (s > 100) { s = s - 1; } return s; }",
        );
        let Item::Fn(f) = &m.items[0] else { panic!() };
        assert_eq!(f.body.len(), 4);
    }

    #[test]
    fn parses_function_pointers_and_indirect_calls() {
        let m = parse("fn f(g) { var h = &f; return g(1) + h(2); }");
        let Item::Fn(f) = &m.items[0] else { panic!() };
        match &f.body[0] {
            Stmt::VarDecl { init: Some(e), .. } => {
                assert_eq!(*e, Expr::AddrOf("f".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_attributes_and_static() {
        let m = parse("#[noinline] #[strict_fp] static fn f() { return 0; }");
        let Item::Fn(f) = &m.items[0] else { panic!() };
        assert!(f.is_static);
        assert!(f.attrs.noinline);
        assert!(f.attrs.strict_fp);
        assert!(!f.attrs.inline_hint);
    }

    #[test]
    fn parses_extern_decl() {
        let m = parse("extern fn curses_move(2);");
        assert_eq!(
            m.items[0],
            Item::Extern(ExternDecl {
                name: "curses_move".into(),
                arity: 2
            })
        );
    }

    #[test]
    fn intrinsics_parse_as_intrinsic_nodes() {
        let m = parse("fn f(n) { return __alloca(n); }");
        let Item::Fn(f) = &m.items[0] else { panic!() };
        match &f.body[0] {
            Stmt::Return(Some(Expr::Intrinsic(n, args))) => {
                assert_eq!(n, "__alloca");
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_and_logical_ops() {
        let m = parse("fn f(a, b) { return a && b ? a : b || 1; }");
        let Item::Fn(f) = &m.items[0] else { panic!() };
        assert!(matches!(&f.body[0], Stmt::Return(Some(Expr::Ternary(..)))));
    }

    #[test]
    fn error_has_position() {
        let e = parse_module("m", "fn f( { }").unwrap_err();
        assert_eq!(e.module, "m");
        assert!(e.msg.contains("expected"));
    }

    /// `fn main(x) { return <open>x<close>; }` with `n` levels of nesting
    /// inside the return expression.
    fn nested_source(n: usize, open: &str, close: &str) -> String {
        format!(
            "fn main(x) {{ return {}x{}; }}",
            open.repeat(n),
            close.repeat(n)
        )
    }

    #[test]
    fn nesting_is_bounded_at_the_limit() {
        // The function body is one level, so MAX_NESTING - 1 parentheses
        // reach the limit exactly.
        let at = nested_source(MAX_NESTING - 1, "(", ")");
        parse(&at);
        let past = nested_source(MAX_NESTING, "(", ")");
        let e = parse_module("m", &past).unwrap_err();
        assert!(e.msg.contains("nesting deeper than"), "{e}");
        assert_eq!(e.line, 1);
        // Unary chains, ternary chains and blocks are bounded the same way.
        for (open, close) in [("-", ""), ("x ? x : ", "")] {
            assert!(parse_module("m", &nested_source(MAX_NESTING - 1, open, close)).is_ok());
            let e = parse_module("m", &nested_source(MAX_NESTING, open, close)).unwrap_err();
            assert!(e.msg.contains("nesting deeper than"), "{e}");
        }
        let blocks = |n: usize| {
            format!(
                "fn main() {{ {}return 0;{} }}",
                "if (1) { ".repeat(n),
                " }".repeat(n)
            )
        };
        assert!(parse_module("m", &blocks(MAX_NESTING / 2)).is_ok());
        assert!(parse_module("m", &blocks(MAX_NESTING)).is_err());
        // The nesting bomb from the field: an error, not a stack overflow.
        let bomb = nested_source(20_000, "(", ")");
        assert!(parse_module("m", &bomb).is_err());
    }

    #[test]
    fn chained_calls_and_indexing() {
        let m = parse("fn f(t) { return t[0](1)[2]; }");
        let Item::Fn(f) = &m.items[0] else { panic!() };
        assert!(matches!(&f.body[0], Stmt::Return(Some(Expr::Index(..)))));
    }

    #[test]
    fn else_if_chains() {
        let m = parse("fn f(x) { if (x == 1) { return 1; } else if (x == 2) { return 2; } else { return 3; } }");
        let Item::Fn(f) = &m.items[0] else { panic!() };
        match &f.body[0] {
            Stmt::If { else_, .. } => assert!(matches!(else_[0], Stmt::If { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }
}
