#include "frontend/printer.h"

namespace g2p {

namespace {

/// Append-style printer: every production appends to one output buffer, so
/// regenerating a loop costs one growing allocation instead of a temporary
/// string per sub-expression (this path runs once per extracted loop on the
/// serving frontend). Output is byte-identical to the historical
/// ostringstream printer — the frontend oracle test pins that.
class Printer {
 public:
  explicit Printer(std::string& out) : out_(out) {}

  void indent(int level) { out_.append(static_cast<std::size_t>(level) * 2, ' '); }

  void print_expr(const Expr& e) {
    switch (e.kind()) {
      case NodeKind::kIntLiteral:
        out_ += static_cast<const IntLiteral&>(e).text;
        break;
      case NodeKind::kFloatLiteral:
        out_ += static_cast<const FloatLiteral&>(e).text;
        break;
      case NodeKind::kCharLiteral:
        out_ += static_cast<const CharLiteral&>(e).text;
        break;
      case NodeKind::kStringLiteral:
        out_ += static_cast<const StringLiteral&>(e).text;
        break;
      case NodeKind::kDeclRef:
        out_ += static_cast<const DeclRef&>(e).name;
        break;
      case NodeKind::kBinaryOperator: {
        const auto& b = static_cast<const BinaryOperator&>(e);
        print_operand(*b.lhs);
        out_ += ' ';
        out_ += b.op;
        out_ += ' ';
        print_operand(*b.rhs);
        break;
      }
      case NodeKind::kUnaryOperator: {
        const auto& u = static_cast<const UnaryOperator&>(e);
        if (u.op == "sizeof") {
          out_ += "sizeof ";
          print_operand(*u.operand);
        } else if (u.prefix) {
          out_ += u.op;
          print_operand(*u.operand);
        } else {
          print_operand(*u.operand);
          out_ += u.op;
        }
        break;
      }
      case NodeKind::kAssignment: {
        const auto& a = static_cast<const Assignment&>(e);
        print_expr(*a.lhs);
        out_ += ' ';
        out_ += a.op;
        out_ += ' ';
        print_expr(*a.rhs);
        break;
      }
      case NodeKind::kConditional: {
        const auto& c = static_cast<const Conditional&>(e);
        print_operand(*c.cond);
        out_ += " ? ";
        print_expr(*c.then_expr);
        out_ += " : ";
        print_expr(*c.else_expr);
        break;
      }
      case NodeKind::kCallExpr: {
        const auto& c = static_cast<const CallExpr&>(e);
        out_ += c.callee;
        out_ += '(';
        for (std::size_t i = 0; i < c.args.size(); ++i) {
          if (i) out_ += ", ";
          print_expr(*c.args[i]);
        }
        out_ += ')';
        break;
      }
      case NodeKind::kArraySubscript: {
        const auto& a = static_cast<const ArraySubscript&>(e);
        print_operand(*a.base);
        out_ += '[';
        print_expr(*a.index);
        out_ += ']';
        break;
      }
      case NodeKind::kMemberExpr: {
        const auto& m = static_cast<const MemberExpr&>(e);
        print_operand(*m.base);
        out_ += m.arrow ? "->" : ".";
        out_ += m.member;
        break;
      }
      case NodeKind::kCastExpr: {
        const auto& c = static_cast<const CastExpr&>(e);
        out_ += '(';
        print_type(c.type);
        out_ += ')';
        print_operand(*c.operand);
        break;
      }
      case NodeKind::kParenExpr:
        out_ += '(';
        print_expr(*static_cast<const ParenExpr&>(e).inner);
        out_ += ')';
        break;
      case NodeKind::kInitListExpr: {
        const auto& l = static_cast<const InitListExpr&>(e);
        out_ += '{';
        for (std::size_t i = 0; i < l.items.size(); ++i) {
          if (i) out_ += ", ";
          print_expr(*l.items[i]);
        }
        out_ += '}';
        break;
      }
      case NodeKind::kSizeofExpr:
        out_ += "sizeof(";
        print_type(static_cast<const SizeofExpr&>(e).type);
        out_ += ')';
        break;
      default:
        out_ += "/*?expr?*/";
    }
  }

  /// Print a sub-expression, parenthesizing anything that is not atomic.
  /// Slightly over-parenthesizes; correctness beats minimality here.
  void print_operand(const Expr& e) {
    switch (e.kind()) {
      case NodeKind::kIntLiteral:
      case NodeKind::kFloatLiteral:
      case NodeKind::kCharLiteral:
      case NodeKind::kStringLiteral:
      case NodeKind::kDeclRef:
      case NodeKind::kCallExpr:
      case NodeKind::kArraySubscript:
      case NodeKind::kMemberExpr:
      case NodeKind::kParenExpr:
      case NodeKind::kSizeofExpr:
      case NodeKind::kUnaryOperator:
        print_expr(e);
        break;
      default:
        out_ += '(';
        print_expr(e);
        out_ += ')';
    }
  }

  void print_type(const Type& t) {
    out_ += t.base;
    for (int i = 0; i < t.pointer_depth; ++i) out_ += '*';
  }

  void print_stmt(const Stmt& s, int level) {
    if (s.pragma_text) {
      indent(level);
      out_ += '#';
      out_ += *s.pragma_text;
      out_ += '\n';
    }
    switch (s.kind()) {
      case NodeKind::kCompoundStmt: {
        const auto& c = static_cast<const CompoundStmt&>(s);
        indent(level);
        out_ += "{\n";
        for (const auto& child : c.body) print_stmt(*child, level + 1);
        indent(level);
        out_ += "}\n";
        break;
      }
      case NodeKind::kDeclStmt: {
        indent(level);
        print_decl_group(static_cast<const DeclStmt&>(s));
        out_ += ";\n";
        break;
      }
      case NodeKind::kExprStmt: {
        indent(level);
        print_expr(*static_cast<const ExprStmt&>(s).expr);
        out_ += ";\n";
        break;
      }
      case NodeKind::kIfStmt: {
        const auto& i = static_cast<const IfStmt&>(s);
        indent(level);
        out_ += "if (";
        print_expr(*i.cond);
        out_ += ")\n";
        print_branch(*i.then_branch, level);
        if (i.else_branch) {
          indent(level);
          out_ += "else\n";
          print_branch(*i.else_branch, level);
        }
        break;
      }
      case NodeKind::kForStmt: {
        const auto& f = static_cast<const ForStmt&>(s);
        indent(level);
        out_ += "for (";
        print_for_init(*f.init);
        out_ += ' ';
        if (f.cond) print_expr(*f.cond);
        out_ += "; ";
        if (f.inc) print_expr(*f.inc);
        out_ += ")\n";
        print_branch(*f.body, level);
        break;
      }
      case NodeKind::kWhileStmt: {
        const auto& w = static_cast<const WhileStmt&>(s);
        indent(level);
        out_ += "while (";
        print_expr(*w.cond);
        out_ += ")\n";
        print_branch(*w.body, level);
        break;
      }
      case NodeKind::kDoStmt: {
        const auto& d = static_cast<const DoStmt&>(s);
        indent(level);
        out_ += "do\n";
        print_branch(*d.body, level);
        indent(level);
        out_ += "while (";
        print_expr(*d.cond);
        out_ += ");\n";
        break;
      }
      case NodeKind::kReturnStmt: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        indent(level);
        out_ += "return";
        if (r.value) {
          out_ += ' ';
          print_expr(*r.value);
        }
        out_ += ";\n";
        break;
      }
      case NodeKind::kBreakStmt:
        indent(level);
        out_ += "break;\n";
        break;
      case NodeKind::kContinueStmt:
        indent(level);
        out_ += "continue;\n";
        break;
      case NodeKind::kNullStmt:
        indent(level);
        out_ += ";\n";
        break;
      default:
        indent(level);
        out_ += "/*?stmt?*/;\n";
    }
  }

  /// For-init renders without its trailing newline; DeclStmt keeps its ';'.
  void print_for_init(const Stmt& s) {
    if (s.kind() == NodeKind::kExprStmt) {
      print_expr(*static_cast<const ExprStmt&>(s).expr);
    } else if (s.kind() == NodeKind::kDeclStmt) {
      print_decl_group(static_cast<const DeclStmt&>(s));
    }
    out_ += ';';
  }

  void print_decl_group(const DeclStmt& d) {
    for (std::size_t i = 0; i < d.decls.size(); ++i) {
      const VarDecl& v = *d.decls[i];
      if (i == 0) {
        out_ += v.type.base;
        out_ += ' ';
        for (int p = 0; p < v.type.pointer_depth; ++p) out_ += '*';
      } else {
        out_ += ", ";
        for (int p = 0; p < v.type.pointer_depth; ++p) out_ += '*';
      }
      out_ += v.name;
      for (const auto& dim : v.array_dims) {
        out_ += '[';
        print_expr(*dim);
        out_ += ']';
      }
      if (v.init) {
        out_ += " = ";
        print_expr(*v.init);
      }
    }
  }

  void print_branch(const Stmt& body, int level) {
    print_stmt(body, body.kind() == NodeKind::kCompoundStmt ? level : level + 1);
  }

  void print_decl(const Decl& d, int level) {
    switch (d.kind()) {
      case NodeKind::kVarDecl: {
        const auto& v = static_cast<const VarDecl&>(d);
        indent(level);
        print_type(v.type);
        out_ += ' ';
        out_ += v.name;
        for (const auto& dim : v.array_dims) {
          out_ += '[';
          print_expr(*dim);
          out_ += ']';
        }
        if (v.init) {
          out_ += " = ";
          print_expr(*v.init);
        }
        out_ += ";\n";
        break;
      }
      case NodeKind::kParamDecl: {
        const auto& p = static_cast<const ParamDecl&>(d);
        print_type(p.type);
        out_ += ' ';
        out_ += p.name;
        if (p.is_array) out_ += "[]";
        break;
      }
      case NodeKind::kFunctionDecl: {
        const auto& f = static_cast<const FunctionDecl&>(d);
        indent(level);
        print_type(f.return_type);
        out_ += ' ';
        out_ += f.name;
        out_ += '(';
        for (std::size_t i = 0; i < f.params.size(); ++i) {
          if (i) out_ += ", ";
          print_decl(*f.params[i], 0);
        }
        out_ += ')';
        if (f.body) {
          out_ += '\n';
          print_stmt(*f.body, level);
        } else {
          out_ += ";\n";
        }
        break;
      }
      default:
        indent(level);
        out_ += "/*?decl?*/;\n";
    }
  }

  void print_node(const Node& n, int level) {
    if (n.kind() == NodeKind::kTranslationUnit) {
      const auto& tu = static_cast<const TranslationUnit&>(n);
      for (const auto& d : tu.decls) {
        print_decl(*d, level);
        out_ += '\n';
      }
    } else if (n.is_expr()) {
      print_expr(static_cast<const Expr&>(n));
    } else if (n.is_stmt()) {
      print_stmt(static_cast<const Stmt&>(n), level);
    } else {
      print_decl(static_cast<const Decl&>(n), level);
    }
  }

 private:
  std::string& out_;
};

}  // namespace

std::string to_source(const Node& node, int indent) {
  std::string out;
  Printer(out).print_node(node, indent);
  return out;
}

}  // namespace g2p
