package repro.join

import java.math.RoundingMode
import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, DecimalType, LongType}
import scala.collection.mutable
import scala.util.Random

/** Driver-side implementation of Lemma 2.1: `CountRect` and `SampleRect` over
  * the (never materialized) join result q(D), restricted to an axis-parallel
  * box. It is also the only place that counts join participation per tuple:
  * Algorithm 3's leaf histograms H_u come from [[histogram]].
  *
  * The index is built from the query's *input* relations — O(N) rows total,
  * which is exactly the premise of relational algorithms (inputs small, join
  * huge). Spark generates the relations; this class collects each of them
  * once, drops the dangling rows itself, and answers the paper's many tiny
  * per-grid-cell count/sample queries at RAM-model speed, the same role
  * Yannakakis [55] + Zhao et al. [56] play in the paper's cost model.
  *
  * Everything a box query would otherwise re-derive by hashing join keys or
  * scanning is precomputed once at build time: per relation, its columns as
  * primitive arrays, each column's rows sorted by value, each row's `Int` id
  * of its group (the rows sharing its key with the parent), each row's group
  * id in every child, and the unfiltered up-counts. A query is then a range
  * scan plus a multiply-accumulate over those arrays: a relation the box cuts
  * visits only the rows of its narrowest cut range, found by binary search,
  * and a subtree whose attributes the box leaves free reuses the unfiltered
  * counts. So a call costs O(log N + rows in the narrowest cut range +
  * groups) per relation with a cut column, O(rows) per relation with none
  * but a cut relation below it, and allocates only per-group (and, to
  * sample, per-row) arrays of those relations.
  *
  * Boxes are full-width: `lo(i)..hi(i)` per global attribute i (±∞ for
  * unconstrained attributes), so projections q_u(D) are handled for free —
  * constrain only the attributes in A_u; multiplicities are preserved because
  * counts always count full join results (|pi-bar_B(q(D)) ∩ R| = |q(D) ∩ R|).
  */
final class LocalJoinIndex private (
    val attrs: Array[String],
    nodes: Array[LocalJoinIndex.Node]
) {
  import LocalJoinIndex._

  val dim: Int = attrs.length
  private val attrIndex: Map[String, Int] = attrs.zipWithIndex.toMap
  def attrIdx(a: String): Int = attrIndex(a)

  /** The stored relation named `name`: the rows the full reduction keeps. */
  private[join] def stored(name: String): Node = nodes.find(_.name == name).get

  /** A box unconstrained in every attribute. */
  def fullBox: (Array[Double], Array[Double]) =
    (Array.fill(dim)(Double.NegativeInfinity), Array.fill(dim)(Double.PositiveInfinity))

  /** Per-attribute (min, max) over the stored relation tuples — a bounding
    * box of the data, used to prune grid cells that cannot contain any join
    * result (every join-result coordinate is some input-tuple coordinate).
    */
  val bounds: (Array[Double], Array[Double]) = {
    val lo = Array.fill(dim)(Double.PositiveInfinity)
    val hi = Array.fill(dim)(Double.NegativeInfinity)
    nodes.foreach { node =>
      var k = 0
      while (k < node.attrIdx.length) {
        val g = node.attrIdx(k)
        val c = node.cols(k)
        var i = 0
        while (i < c.length) {
          if (c(i) < lo(g)) lo(g) = c(i)
          if (c(i) > hi(g)) hi(g) = c(i)
          i += 1
        }
        k += 1
      }
    }
    (lo, hi)
  }
  // private copies: callers may write into `bounds`
  private val dataLo = bounds._1.clone()
  private val dataHi = bounds._2.clone()

  private val unfiltered: Up = up(null, null, withRows = true)

  /** |q(D)| (exact). */
  def n: Double = unfiltered.msg(0)(0)

  /** CountRect(q, D, R): |q(D) ∩ R| (exact) for the closed box `lo..hi`, one
    * bound per attribute (±∞ leaves it free). O(log N + rows in the narrowest
    * cut range + groups) per relation with a cut column of its own, O(rows)
    * per relation with none of its own but a cut relation below it.
    */
  def countBox(lo: Array[Double], hi: Array[Double]): Double = {
    checkBox(lo, hi)
    up(lo, hi, withRows = false).msg(0)(0)
  }

  /** SampleRect(q, D, R, z): z uniform (with replacement) samples from
    * q(D) ∩ R, as full-width tuples in `attrs` order. Empty if the box holds
    * no join result. The box is given as in [[countBox]].
    */
  def sampleBox(lo: Array[Double], hi: Array[Double], z: Int, rng: Random): Array[Array[Double]] = {
    checkBox(lo, hi)
    sample(up(lo, hi, withRows = true), z, rng)
  }

  /** z uniform samples from all of q(D) (precomputed weights; O(z · m · log N)). */
  def sampleUniform(z: Int, rng: Random): Array[Array[Double]] =
    sample(unfiltered, z, rng)

  /** H_u of Algorithm 3 (lines 2-8): each value p of `attr` in q(D) with
    * w(p) = |{t in q(D) : t.attr = p}|, in ascending value order, from the
    * participation counts of one relation holding `attr` (every stored row
    * joins, see [[LocalJoinIndex.build]]); the weights sum to n.
    */
  def histogram(attr: String): Array[(Double, Double)] = {
    val v = nodes.indexWhere(_.attrIdx.contains(attrIdx(attr)))
    val col = nodes(v).cols(nodes(v).attrIdx.indexOf(attrIdx(attr)))
    val w = participation(v)
    col.indices.groupMapReduce(col(_))(w(_))(_ + _)
      .toArray.sortBy(_._1)(Ordering.Double.TotalOrdering)
  }

  /** Per node, each row's join participation count: its up-count (from
    * [[up]]) times its down-count, the top-down half of Yannakakis' message
    * passing. A child row's down-count sums, over the parent rows sharing its
    * key, the parent's down-count times the messages of the parent's other
    * children, so no division is needed. Built on first use.
    */
  private lazy val participation: Array[Array[Double]] = {
    val down = new Array[Array[Double]](nodes.length)
    down(0) = Array.fill(nodes(0).rows)(1.0)
    for (v <- nodes.indices) { // parents come before children in `nodes`
      val node = nodes(v)
      val kids = node.children
      val toChild = kids.map(c => new Array[Double](nodes(c).groups))
      val m = new Array[Double](kids.length)
      for (i <- 0 until node.rows if down(v)(i) > 0) {
        for (ci <- kids.indices) m(ci) = msgOf(unfiltered.msg(kids(ci)), node.childGid(ci)(i))
        for (ci <- kids.indices) {
          val d = kids.indices.foldLeft(down(v)(i))((acc, cj) => if (cj == ci) acc else acc * m(cj))
          val g = node.childGid(ci)(i)
          if (d > 0 && g >= 0) toChild(ci)(g) += d
        }
      }
      for (ci <- kids.indices) {
        val child = nodes(kids(ci))
        down(kids(ci)) = Array.tabulate(child.rows)(r => toChild(ci)(child.gid(r)))
      }
    }
    Array.tabulate(nodes.length)(v => Array.tabulate(down(v).length)(i => unfiltered.cnt(v)(i) * down(v)(i)))
  }

  // ------------------------------------------------------------------

  /** A box has one bound per attribute on each side, none of them NaN: the
    * range searches compare against every bound, and a NaN would select no
    * row.
    */
  private def checkBox(lo: Array[Double], hi: Array[Double]): Unit = {
    require(lo.length == dim && hi.length == dim,
      s"box bounds must have one entry per attribute ($dim), got ${lo.length} and ${hi.length}")
    require(!lo.exists(_.isNaN) && !hi.exists(_.isNaN),
      s"box bound is NaN: ${lo.mkString("[", ", ", "]")} .. ${hi.mkString("[", ", ", "]")}")
  }

  /** Whether the box [lo, hi] may exclude a stored value of attribute g. */
  private def cuts(g: Int, lo: Array[Double], hi: Array[Double]): Boolean =
    !(lo(g) <= dataLo(g) && hi(g) >= dataHi(g))

  /** The bottom-up half of Yannakakis' message passing, restricted to the
    * box (`lo == null`: no box): per node, each group's message — the number
    * of join results of the node's subtree, inside the box, that the group's
    * rows take part in — and, `withRows`, each row's up-count and room for
    * each group's cumulative up-counts, which top-down sampling fills on
    * first use (all of them up front when there is no box). A node whose
    * subtree the box leaves free takes the unfiltered arrays.
    */
  private def up(lo: Array[Double], hi: Array[Double], withRows: Boolean): Up = {
    val cnt = new Array[Array[Double]](nodes.length)
    val msg = new Array[Array[Double]](nodes.length)
    val cum = new Array[Array[Double]](nodes.length)
    var v = nodes.length - 1
    while (v >= 0) { // children come after parents in `nodes`
      val node = nodes(v)
      if (lo != null && !node.subtreeAttrs.exists(cuts(_, lo, hi))) {
        cnt(v) = unfiltered.cnt(v)
        msg(v) = unfiltered.msg(v)
        cum(v) = unfiltered.cum(v)
      } else {
        val filter =
          if (lo == null) Array.emptyIntArray
          else node.attrIdx.indices.filter(k => cuts(node.attrIdx(k), lo, hi)).toArray
        val rowCnt = if (withRows) new Array[Double](node.rows) else null
        msg(v) = weigh(node, filter, lo, hi, node.children.map(msg(_)), rowCnt)
        cnt(v) = rowCnt
        if (withRows) {
          cum(v) = new Array[Double](node.members.length)
          if (lo == null) for (g <- 0 until node.groups) accumulate(node, rowCnt, cum(v), g)
        }
      }
      v -= 1
    }
    Up(cnt, msg, cum)
  }

  /** One node's step of [[up]]: each row passing the filter (every local
    * column `k` in `filter` within `lo..hi` of its attribute) counts the
    * product of its children's messages (`kidMsg`, in child order), written
    * to `rowCnt` unless null (rows not visited keep 0), and each group's
    * message sums its rows' counts. Only the rows of the narrowest cut
    * column's range are visited, found by binary search with the filter's
    * own comparisons; with no cut column, every row in row order. Counts
    * are integers below 2^53, so the sums do not depend on the visiting
    * order.
    */
  private def weigh(node: Node, filter: Array[Int], lo: Array[Double], hi: Array[Double],
                    kidMsg: Array[Array[Double]], rowCnt: Array[Double]): Array[Double] = {
    var order: Array[Int] = null // null: rows from..to themselves
    var from = 0
    var to = node.rows
    var f = 0
    while (f < filter.length) {
      val k = filter(f)
      val s = node.sorted(k)
      val a = firstNotBelow(s, lo(node.attrIdx(k)))
      val b = firstAbove(s, hi(node.attrIdx(k)))
      if (b - a < to - from) { order = node.byValue(k); from = a; to = b }
      f += 1
    }
    val m = new Array[Double](node.groups)
    val gid = node.gid
    val kidGid = node.childGid
    var p = from
    while (p < to) {
      val i = if (order == null) p else order(p)
      var c = 1.0
      f = 0
      while (c > 0 && f < filter.length) {
        val k = filter(f)
        val x = node.cols(k)(i)
        if (x < lo(node.attrIdx(k)) || x > hi(node.attrIdx(k))) c = 0.0
        f += 1
      }
      var ci = 0
      while (c > 0 && ci < kidMsg.length) {
        c *= msgOf(kidMsg(ci), kidGid(ci)(i))
        ci += 1
      }
      if (rowCnt != null) rowCnt(i) = c
      m(gid(i)) += c
      p += 1
    }
    m
  }

  /** Group g's running sums of `cnt` over its rows, in row order, written to
    * its slots of `cum` (indexed like `node.members`).
    */
  private def accumulate(node: Node, cnt: Array[Double], cum: Array[Double], g: Int): Unit = {
    var acc = 0.0
    var p = node.groupStart(g)
    while (p < node.groupStart(g + 1)) {
      acc += cnt(node.members(p))
      cum(p) = acc
      p += 1
    }
  }

  private def sample(w: Up, z: Int, rng: Random): Array[Array[Double]] = {
    if (w.msg(0)(0) <= 0) return Array.empty
    val out = new Array[Array[Double]](z)
    var s = 0
    while (s < z) {
      val tuple = new Array[Double](dim)
      descend(0, draw(0, 0, w, rng), tuple, w, rng)
      out(s) = tuple
      s += 1
    }
    out
  }

  /** A row of group `g` of node `v`, drawn with probability proportional to
    * its up-count: the smallest position whose cumulative count exceeds u
    * (never a row of count 0: its sum equals the one before it, or is 0 when
    * first, and u >= 0). The group's cumulative counts are filled on the
    * first draw from it: until then its last slot, which ends up holding the
    * group's message (> 0 for every group a draw enters), reads 0.
    */
  private def draw(v: Int, g: Int, w: Up, rng: Random): Int = {
    val node = nodes(v)
    val cum = w.cum(v)
    var lo = node.groupStart(g); var hi = node.groupStart(g + 1) - 1
    if (cum(hi) == 0) accumulate(node, w.cnt(v), cum, g)
    val u = rng.nextDouble() * w.msg(v)(g)
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cum(mid) > u) hi = mid else lo = mid + 1
    }
    node.members(lo)
  }

  private def descend(v: Int, row: Int, out: Array[Double], w: Up, rng: Random): Unit = {
    val node = nodes(v)
    var k = 0
    while (k < node.attrIdx.length) { out(node.attrIdx(k)) = node.cols(k)(row); k += 1 }
    var ci = 0
    while (ci < node.children.length) {
      val c = node.children(ci)
      descend(c, draw(c, node.childGid(ci)(row), w, rng), out, w, rng)
      ci += 1
    }
  }
}

object LocalJoinIndex {

  /** One relation of the join tree, keyed by `Int` group ids. */
  private[join] final case class Node(
      name: String,
      attrIdx: Array[Int],           // global attr index of each local column
      cols: Array[Array[Double]],    // cols(k)(i): local column k of row i
      byValue: Array[Array[Int]],    // byValue(k): the rows in ascending order of column k
      sorted: Array[Array[Double]],  // sorted(k)(p) = cols(k)(byValue(k)(p))
      gid: Array[Int],               // each row's group: the rows sharing its key with the parent (root: 0)
      groupStart: Array[Int],        // group g's rows are members(groupStart(g) until groupStart(g + 1))
      members: Array[Int],           // rows by group, in row order within a group
      children: Array[Int],          // indices into `nodes`
      childGid: Array[Array[Int]],   // childGid(ci)(i): the group of child ci that row i's key selects, -1 if none
      subtreeAttrs: Array[Int]       // global attr indices of the subtree rooted here
  ) {
    def rows: Int = gid.length
    def groups: Int = groupStart.length - 1
  }

  /** One up pass: per node, each row's up-count, each group's message, and
    * each group's cumulative up-counts (`cnt`, `cum`: null unless asked for;
    * under a box, [[LocalJoinIndex.draw]] fills `cum` group by group).
    */
  private final case class Up(cnt: Array[Array[Double]], msg: Array[Array[Double]],
                              cum: Array[Array[Double]])

  /** The message of group `g` (0 when no group matches, g = -1). */
  private def msgOf(msg: Array[Double], g: Int): Double = if (g < 0) 0.0 else msg(g)

  /** The first position of ascending `s` whose value is not `< x`. */
  private def firstNotBelow(s: Array[Double], x: Double): Int = {
    var lo = 0; var hi = s.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (s(mid) < x) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The first position of ascending `s` whose value is `> x`. */
  private def firstAbove(s: Array[Double], x: Double): Int = {
    var lo = 0; var hi = s.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (s(mid) > x) hi = mid else lo = mid + 1
    }
    lo
  }

  /** Wrapper giving Array[Double] value-based equality/hashing for HashMap keys. */
  private final class Key(val a: Array[Double]) {
    override def hashCode(): Int = java.util.Arrays.hashCode(a)
    override def equals(o: Any): Boolean = o match {
      case k: Key => java.util.Arrays.equals(a, k.a)
      case _      => false
    }
  }

  /** A collected relation before group ids are assigned. */
  private final case class Rel(
      name: String,
      attrIdx: Array[Int],
      rows: Array[Array[Double]],
      children: Array[Int],
      parentKey: Array[Int],       // local positions of the join columns with the parent
      childKeys: Array[Array[Int]] // per child, local positions of the columns of its parentKey, in its order
  )

  /** The values of `row` at local positions `pos`. */
  private def keyOf(row: Array[Double], pos: Array[Int]): Key = {
    val a = new Array[Double](pos.length)
    var j = 0
    while (j < pos.length) { a(j) = row(pos(j)); j += 1 }
    new Key(a)
  }

  /** The largest magnitude up to which every integer is a distinct double. */
  private val MaxExactLong: Long = 1L << 53

  /** Collect each relation once (cast to double) and build the fully
    * reduced index: a first index over the collected rows gives every row its
    * join participation, and only rows with a positive count are kept.
    * This is the program's one full reduction: [[Yannakakis.fullReduce]]
    * returns the rows kept here. Every edge joins on
    * [[Relation.joinColumns]], as Spark's passes do. Columns are stored in
    * global attribute order and rows in a fixed lexicographic order, so the
    * index depends on the rows alone, not on their order, Spark's
    * partitioning or plan: `build(Yannakakis.fullReduce(q))` is `build(q)`,
    * and so is the build of any other full reduction of `q`.
    * A null join key makes its row dangle, as in SQL; any other null, or a
    * NaN, is rejected, and so is a join key that another key of its column
    * could read as once cast to double: a `Long` beyond ±2^53, or a decimal
    * that does not come back when its double is rounded to the column's
    * scale. -0.0 is stored as 0.0, since keys compare bit patterns and
    * Spark's equi-join treats the two as equal.
    */
  def build(q: AcyclicQuery): LocalJoinIndex = {
    val attrs = q.allAttrs.toArray
    val attrIndex = attrs.zipWithIndex.toMap
    val tree = q.rooted(q.relations.head.name)

    val buf = mutable.ArrayBuffer.empty[Rel]
    def flatten(t: JoinTree, parent: Option[Relation]): Int = {
      val myIdx = buf.length
      val cols = t.rel.attrs.sortBy(attrIndex)
      val parentKey = parent.map(t.rel.joinColumns).getOrElse(Nil)
      // a child's key columns in the child's order, which is its parentKey's
      val childKeys = t.children.map(c => c.rel.joinColumns(t.rel))
      buf += Rel(
        t.rel.name,
        cols.map(attrIndex).toArray,
        collectRows(t.rel, cols, (parentKey ++ childKeys.flatten).toSet),
        Array.empty,
        parentKey.map(cols.indexOf).toArray,
        childKeys.map(_.map(cols.indexOf).toArray).toArray
      )
      val kids = t.children.map(c => flatten(c, Some(t.rel))).toArray
      buf(myIdx) = buf(myIdx).copy(children = kids)
      myIdx
    }
    flatten(tree, None)
    val rels = buf.toArray
    val participation = index(attrs, rels).participation
    index(attrs, rels.zip(participation).map { case (rel, c) =>
      rel.copy(rows = rel.rows.zip(c).collect { case (row, n) if n > 0 => row }) })
  }

  /** The index over `rels` (parents before children): group ids by hashing
    * each row's key, once, so that no query hashes.
    */
  private def index(attrs: Array[String], rels: Array[Rel]): LocalJoinIndex = {
    // per node, its parent key -> group id, ids in order of first appearance
    val groupIds = rels.indices.map(_ => mutable.HashMap.empty[Key, Int])
    val gids = rels.indices.map { v =>
      val ids = groupIds(v)
      if (v == 0) new Array[Int](rels(v).rows.length)
      else rels(v).rows.map(r => ids.getOrElseUpdate(keyOf(r, rels(v).parentKey), ids.size))
    }
    val subtreeAttrs = new Array[Array[Int]](rels.length)
    for (v <- rels.indices.reverse) // children come after parents
      subtreeAttrs(v) = (rels(v).attrIdx ++ rels(v).children.flatMap(subtreeAttrs(_))).distinct.sorted
    val nodes = rels.indices.map { v =>
      val rel = rels(v)
      val gid = gids(v)
      val groups = if (v == 0) 1 else groupIds(v).size
      val groupStart = new Array[Int](groups + 1)
      gid.foreach(g => groupStart(g + 1) += 1)
      for (g <- 0 until groups) groupStart(g + 1) += groupStart(g)
      val members = new Array[Int](rel.rows.length)
      val next = groupStart.clone()
      for (i <- rel.rows.indices) { members(next(gid(i))) = i; next(gid(i)) += 1 }
      val cols = Array.tabulate(rel.attrIdx.length)(k => rel.rows.map(_(k)))
      val byValue = cols.map(ascending)
      Node(
        rel.name,
        rel.attrIdx,
        cols,
        byValue,
        Array.tabulate(cols.length)(k => byValue(k).map(cols(k)(_))),
        gid,
        groupStart,
        members,
        rel.children,
        rel.children.indices.map { ci =>
          rel.rows.map(r => groupIds(rel.children(ci)).getOrElse(keyOf(r, rel.childKeys(ci)), -1))
        }.toArray,
        subtreeAttrs(v)
      )
    }
    new LocalJoinIndex(attrs, nodes.toArray)
  }

  /** The relation's `cols` as doubles, under the input contract of [[build]],
    * in lexicographic order over its join columns (`keys`) first, so that
    * rows sharing a join key are adjacent.
    */
  private def collectRows(rel: Relation, cols: Seq[String],
                          keys: Set[String]): Array[Array[Double]] = {
    val keysFirst = cols.indices.sortBy(i => !keys(cols(i))).toArray
    // a Long or decimal join key is collected as is and checked before its cast
    val types = cols.map(c => rel.df.schema(c).dataType)
    val uncast = cols.indices.map(i => keys(cols(i)) && (types(i) == LongType || types(i).isInstanceOf[DecimalType]))
    val rows = rel.df.select(cols.indices.map(i => if (uncast(i)) col(cols(i)) else col(cols(i)).cast("double")): _*)
      .collect()
      .filterNot(r => cols.indices.exists(i => r.isNullAt(i) && keys(cols(i))))
      .map { r =>
        Array.tabulate(cols.length) { i =>
          require(!r.isNullAt(i), s"relation ${rel.name}: null in column ${cols(i)}")
          val v = if (uncast(i)) exactKey(r, i, types(i), rel.name, cols(i)) else r.getDouble(i)
          require(!v.isNaN, s"relation ${rel.name}: NaN in column ${cols(i)}")
          v + 0.0 // -0.0 + 0.0 == +0.0
        }
      }
    java.util.Arrays.sort(rows, lexicographic(keysFirst))
    rows
  }

  /** Rows compared column by column in the order `order`, each column under
    * `Double.TotalOrdering` (`java.lang.Double.compare`).
    */
  private def lexicographic(order: Array[Int]): java.util.Comparator[Array[Double]] = (x, y) => {
    var c = 0
    var j = 0
    while (c == 0 && j < order.length) {
      c = java.lang.Double.compare(x(order(j)), y(order(j)))
      j += 1
    }
    c
  }

  /** The positions of `c` in ascending order of value, ties in position
    * order: each position packed under its value's rank among the sorted
    * values, so that one primitive sort orders them. Stored values hold no
    * NaN and no -0.0, so this order agrees with `<`.
    */
  private def ascending(c: Array[Double]): Array[Int] = {
    val values = c.clone()
    java.util.Arrays.sort(values)
    // equal values take the same binary-search path, so the same rank
    val packed = Array.tabulate(c.length)(i => java.util.Arrays.binarySearch(values, c(i)).toLong << 32 | i)
    java.util.Arrays.sort(packed)
    packed.map(_.toInt)
  }

  /** Join key `r(i)` of type `t` (`Long` or decimal) as a double, which no
    * other key of its column reads as: a `Long` within ±2^53, or a decimal
    * that equals the shortest decimal of its double rounded to the column's
    * scale.
    */
  private def exactKey(r: Row, i: Int, t: DataType, rel: String, column: String): Double = t match {
    case LongType =>
      val l = r.getLong(i)
      require(l <= MaxExactLong && l >= -MaxExactLong,
        s"relation $rel: join key $l in column $column is beyond ±2^53, " +
          "where distinct keys merge once cast to double")
      l.toDouble
    case d: DecimalType =>
      val x = r.getDecimal(i)
      val v = x.doubleValue
      require(java.math.BigDecimal.valueOf(v).setScale(d.scale, RoundingMode.HALF_EVEN).compareTo(x) == 0,
        s"relation $rel: join key $x in column $column does not survive the cast to double, " +
          "where distinct keys merge")
      v
  }
}
