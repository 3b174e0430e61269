package pmdl

import (
	"strconv"
)

// parser is a recursive-descent parser with one token of lookahead.
type parser struct {
	toks    []Token
	pos     int
	structs map[string]bool // typedef'd struct names seen so far
	depth   int             // statements and expressions open around the current token
}

// maxNesting bounds how deeply statements and expressions nest, so that
// source text cannot run the recursive descent (and every later walk of the
// tree) out of stack.
const maxNesting = 500

// enter opens one nesting level; the caller defers p.leave().
func (p *parser) enter() error {
	if p.depth++; p.depth > maxNesting {
		return errf(p.peek().Pos, "nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// Parse compiles model source text into a File.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, structs: make(map[string]bool)}
	f := &File{}
	for p.peek().Kind == TokTypedef {
		td, err := p.parseTypedef()
		if err != nil {
			return nil, err
		}
		f.Typedefs = append(f.Typedefs, td)
		p.structs[td.Name] = true
	}
	alg, err := p.parseAlgorithm()
	if err != nil {
		return nil, err
	}
	f.Algorithm = alg
	if p.peek().Kind != TokEOF {
		return nil, errf(p.peek().Pos, "unexpected %s after algorithm", p.peek().Kind)
	}
	return f, nil
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) expect(k TokKind) (Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s %q", k, t.Kind, t.Text)
	}
	return p.advance(), nil
}

func (p *parser) accept(k TokKind) bool {
	if p.peek().Kind == k {
		p.advance()
		return true
	}
	return false
}

// parseTypedef parses: typedef struct { int a; int b; } Name ;
func (p *parser) parseTypedef() (*StructDef, error) {
	start, _ := p.expect(TokTypedef)
	if _, err := p.expect(TokStruct); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	def := &StructDef{Pos: start.Pos}
	for p.peek().Kind != TokRBrace {
		if _, err := p.expect(TokIntType); err != nil {
			return nil, err
		}
		for {
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			def.Fields = append(def.Fields, name.Text)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
	}
	p.advance() // }
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	def.Name = name.Text
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return def, nil
}

func (p *parser) parseType() (TypeRef, error) {
	t := p.peek()
	switch t.Kind {
	case TokIntType:
		p.advance()
		return TypeRef{Kind: TypeInt}, nil
	case TokDoubleType:
		p.advance()
		return TypeRef{Kind: TypeDouble}, nil
	case TokIdent:
		if p.structs[t.Text] {
			p.advance()
			return TypeRef{Kind: TypeStruct, Struct: t.Text}, nil
		}
	}
	return TypeRef{}, errf(t.Pos, "expected type, found %s %q", t.Kind, t.Text)
}

func (p *parser) isTypeStart() bool {
	switch p.peek().Kind {
	case TokIntType, TokDoubleType:
		return true
	case TokIdent:
		return p.structs[p.peek().Text]
	}
	return false
}

// parseAlgorithm parses: algorithm Name(params) { sections } [;]
func (p *parser) parseAlgorithm() (*Algorithm, error) {
	start, err := p.expect(TokAlgorithm)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	alg := &Algorithm{Name: name.Text, Pos: start.Pos}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if p.peek().Kind != TokRParen {
		for {
			prm, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			alg.Params = append(alg.Params, prm)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for p.peek().Kind != TokRBrace {
		if err := p.parseSection(alg); err != nil {
			return nil, err
		}
	}
	p.advance() // }
	p.accept(TokSemi)
	if len(alg.Coords) == 0 {
		return nil, errf(alg.Pos, "algorithm %s has no coord declaration", alg.Name)
	}
	if alg.Scheme == nil {
		return nil, errf(alg.Pos, "algorithm %s has no scheme declaration", alg.Name)
	}
	return alg, nil
}

func (p *parser) parseParam() (Param, error) {
	typ, err := p.parseType()
	if err != nil {
		return Param{}, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return Param{}, err
	}
	prm := Param{Name: name.Text, Type: typ, Pos: name.Pos}
	for p.accept(TokLBracket) {
		dim, err := p.parseExpr()
		if err != nil {
			return Param{}, err
		}
		prm.Dims = append(prm.Dims, dim)
		if _, err := p.expect(TokRBracket); err != nil {
			return Param{}, err
		}
	}
	return prm, nil
}

func (p *parser) parseSection(alg *Algorithm) error {
	t := p.peek()
	switch t.Kind {
	case TokCoord:
		if alg.Coords != nil {
			return errf(t.Pos, "duplicate coord declaration")
		}
		return p.parseCoord(alg)
	case TokNode:
		if alg.Nodes != nil {
			return errf(t.Pos, "duplicate node declaration")
		}
		return p.parseNode(alg)
	case TokLink:
		if alg.Link != nil {
			return errf(t.Pos, "duplicate link declaration")
		}
		return p.parseLink(alg)
	case TokParent:
		if alg.Parent != nil {
			return errf(t.Pos, "duplicate parent declaration")
		}
		return p.parseParent(alg)
	case TokScheme:
		if alg.Scheme != nil {
			return errf(t.Pos, "duplicate scheme declaration")
		}
		return p.parseScheme(alg)
	}
	return errf(t.Pos, "expected a section (coord/node/link/parent/scheme), found %s %q", t.Kind, t.Text)
}

// parseCoord parses: coord I=p, J=m;
func (p *parser) parseCoord(alg *Algorithm) error {
	p.advance() // coord
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return err
		}
		size, err := p.parseExpr()
		if err != nil {
			return err
		}
		alg.Coords = append(alg.Coords, CoordVar{Name: name.Text, Size: size, Pos: name.Pos})
		if !p.accept(TokComma) {
			break
		}
	}
	_, err := p.expect(TokSemi)
	return err
}

// parseNode parses: node { guard : bench*(expr); ... };
func (p *parser) parseNode(alg *Algorithm) error {
	p.advance() // node
	if _, err := p.expect(TokLBrace); err != nil {
		return err
	}
	for p.peek().Kind != TokRBrace {
		guard, err := p.parseExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(TokColon); err != nil {
			return err
		}
		bench, err := p.expect(TokBench)
		if err != nil {
			return err
		}
		if _, err := p.expect(TokStar); err != nil {
			return err
		}
		vol, err := p.parseParenExpr()
		if err != nil {
			return err
		}
		alg.Nodes = append(alg.Nodes, NodeClause{Guard: guard, Volume: vol, Pos: bench.Pos})
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
	}
	p.advance() // }
	_, err := p.expect(TokSemi)
	return err
}

// parseLink parses: link [(K=m, L=m)] { guard : length*(expr) [I]->[J]; ... };
func (p *parser) parseLink(alg *Algorithm) error {
	start := p.advance() // link
	decl := &LinkDecl{Pos: start.Pos}
	if p.accept(TokLParen) {
		for {
			name, err := p.expect(TokIdent)
			if err != nil {
				return err
			}
			if _, err := p.expect(TokAssign); err != nil {
				return err
			}
			size, err := p.parseExpr()
			if err != nil {
				return err
			}
			decl.Vars = append(decl.Vars, CoordVar{Name: name.Text, Size: size, Pos: name.Pos})
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return err
		}
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return err
	}
	for p.peek().Kind != TokRBrace {
		guard, err := p.parseExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(TokColon); err != nil {
			return err
		}
		lengthTok, err := p.expect(TokLength)
		if err != nil {
			return err
		}
		if _, err := p.expect(TokStar); err != nil {
			return err
		}
		vol, err := p.parseParenExpr()
		if err != nil {
			return err
		}
		src, err := p.parseCoordList()
		if err != nil {
			return err
		}
		if _, err := p.expect(TokArrow); err != nil {
			return err
		}
		dst, err := p.parseCoordList()
		if err != nil {
			return err
		}
		decl.Clauses = append(decl.Clauses, LinkClause{
			Guard: guard, Volume: vol, Src: src, Dst: dst, Pos: lengthTok.Pos,
		})
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
	}
	p.advance() // }
	alg.Link = decl
	_, err := p.expect(TokSemi)
	return err
}

// parseParenExpr parses a mandatory parenthesised expression. The volume
// factors of node and link clauses must be parenthesised — bench*(expr)
// and length*(expr) — because a coordinate target list ([I]->[J]) follows
// immediately and would otherwise be consumed as array subscripts.
func (p *parser) parseParenExpr() (Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return e, nil
}

// parseCoordList parses: [ expr, expr, ... ]
func (p *parser) parseCoordList() ([]Expr, error) {
	if _, err := p.expect(TokLBracket); err != nil {
		return nil, err
	}
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	return out, nil
}

// parseParent parses: parent[0] ; or parent[0,0];
func (p *parser) parseParent(alg *Algorithm) error {
	p.advance() // parent
	coords, err := p.parseCoordList()
	if err != nil {
		return err
	}
	alg.Parent = coords
	_, err = p.expect(TokSemi)
	return err
}

// parseScheme parses: scheme { stmts } ;
func (p *parser) parseScheme(alg *Algorithm) error {
	p.advance() // scheme
	blk, err := p.parseBlock()
	if err != nil {
		return err
	}
	alg.Scheme = blk
	p.accept(TokSemi)
	return nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	start, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: start.Pos}
	for p.peek().Kind != TokRBrace {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.advance() // }
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	defer p.leave()
	if err := p.enter(); err != nil {
		return nil, err
	}
	t := p.peek()
	switch t.Kind {
	case TokLBrace:
		return p.parseBlock()
	case TokPar, TokFor:
		return p.parseLoop()
	case TokIf:
		return p.parseIf()
	default:
		if p.isTypeStart() {
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			return d, nil
		}
		s, err := p.parseSimpleOrAction()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseDecl parses a declaration without the trailing semicolon:
// int a = expr, b;
func (p *parser) parseDecl() (*DeclStmt, error) {
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Type: typ, Pos: p.peek().Pos}
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, name.Text)
		var init Expr
		if p.accept(TokAssign) {
			init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		d.Inits = append(d.Inits, init)
		if !p.accept(TokComma) {
			break
		}
	}
	return d, nil
}

func (p *parser) parseLoop() (Stmt, error) {
	t := p.advance() // par or for
	loop := &LoopStmt{Par: t.Kind == TokPar, Pos: t.Pos}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	// Init clause.
	if p.peek().Kind != TokSemi {
		var init Stmt
		var err error
		if p.isTypeStart() {
			init, err = p.parseDecl()
		} else {
			init, err = p.parseSimpleOrAction()
		}
		if err != nil {
			return nil, err
		}
		loop.Init = init
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	// Condition.
	if p.peek().Kind != TokSemi {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		loop.Cond = cond
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	// Post clause.
	if p.peek().Kind != TokRParen {
		post, err := p.parseSimpleOrAction()
		if err != nil {
			return nil, err
		}
		loop.Post = post
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	loop.Body = body
	return loop, nil
}

func (p *parser) parseIf() (Stmt, error) {
	t := p.advance() // if
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	stmt := &IfStmt{Cond: cond, Then: then, Pos: t.Pos}
	if p.accept(TokElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmt.Else = els
	}
	return stmt, nil
}

// parseSimpleOrAction parses an expression statement, an assignment, or a
// percentage action (expr %% [coords] [-> [coords]]), without the trailing
// semicolon.
func (p *parser) parseSimpleOrAction() (Stmt, error) {
	pos := p.peek().Pos
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.peek().Kind {
	case TokPercent2:
		p.advance()
		a, err := p.parseCoordList()
		if err != nil {
			return nil, err
		}
		act := &ActionStmt{Percent: e, A: a, Pos: pos}
		if p.accept(TokArrow) {
			b, err := p.parseCoordList()
			if err != nil {
				return nil, err
			}
			act.B = b
		}
		return act, nil
	case TokAssign, TokPlusEq, TokMinusEq:
		op := p.advance().Kind
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: &AssignExpr{Op: op, LHS: e, RHS: rhs, Pos: pos}, Pos: pos}, nil
	default:
		return &ExprStmt{X: e, Pos: pos}, nil
	}
}

// Expression parsing with precedence climbing.

var binPrec = map[TokKind]int{
	TokOrOr:   1,
	TokAndAnd: 2,
	TokEq:     3, TokNe: 3,
	TokLt: 4, TokGt: 4, TokLe: 4, TokGe: 4,
	TokPlus: 5, TokMinus: 5,
	TokStar: 6, TokSlash: 6, TokPercent: 6,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		prec, ok := binPrec[op.Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: op.Kind, X: lhs, Y: rhs, Pos: op.Pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	defer p.leave()
	if err := p.enter(); err != nil {
		return nil, err
	}
	t := p.peek()
	switch t.Kind {
	case TokMinus, TokNot, TokAmp:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Kind, X: x, Pos: t.Pos}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch t.Kind {
		case TokLBracket:
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, Idx: idx, Pos: t.Pos}
		case TokDot:
			p.advance()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			x = &MemberExpr{X: x, Name: name.Text, Pos: t.Pos}
		case TokInc, TokDec:
			p.advance()
			x = &IncDecExpr{Op: t.Kind, X: x, Pos: t.Pos}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad integer literal %q", t.Text)
		}
		return &IntLit{Value: v, Pos: t.Pos}, nil
	case TokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad float literal %q", t.Text)
		}
		return &FloatLit{Value: v, Pos: t.Pos}, nil
	case TokSizeof:
		p.advance()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &SizeofExpr{Type: typ, Pos: t.Pos}, nil
	case TokIdent:
		p.advance()
		if p.peek().Kind == TokLParen {
			p.advance()
			call := &CallExpr{Name: t.Text, Pos: t.Pos}
			if p.peek().Kind != TokRParen {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(TokComma) {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	case TokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(t.Pos, "expected expression, found %s %q", t.Kind, t.Text)
}
