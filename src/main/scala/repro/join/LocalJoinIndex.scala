package repro.join

import org.apache.spark.sql.functions.col
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

  private val unfiltered: Weights = buildWeights(None)

  /** |q(D)| (exact). */
  def n: Double = unfiltered.root.total

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
      node.rows.foreach { row =>
        var k = 0
        while (k < node.attrIdx.length) {
          val g = node.attrIdx(k)
          if (row(k) < lo(g)) lo(g) = row(k)
          if (row(k) > hi(g)) hi(g) = row(k)
          k += 1
        }
      }
    }
    (lo, hi)
  }

  /** CountRect(q, D, R): |q(D) ∩ R| (exact). O(total input rows) per call. */
  def countBox(lo: Array[Double], hi: Array[Double]): Double =
    buildWeights(Some((lo, hi))).root.total

  /** SampleRect(q, D, R, z): z uniform (with replacement) samples from
    * q(D) ∩ R, as full-width tuples in `attrs` order. Empty if the box holds
    * no join result.
    */
  def sampleBox(lo: Array[Double], hi: Array[Double], z: Int, rng: Random): Array[Array[Double]] =
    sample(buildWeights(Some((lo, hi))), z, rng)

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
    val col = nodes(v).attrIdx.indexOf(attrIdx(attr))
    val w = participation(v)
    nodes(v).rows.indices.groupMapReduce(nodes(v).rows(_)(col))(w(_))(_ + _)
      .toArray.sortBy(_._1)(Ordering.Double.TotalOrdering)
  }

  /** Per node, each row's join participation count: its up-count (from
    * [[buildWeights]]) times its down-count, the top-down half of Yannakakis'
    * message passing. A child row's down-count sums, over the parent rows
    * sharing its key, the parent's down-count times the messages of the
    * parent's other children, so no division is needed. Built on first use.
    */
  private lazy val participation: Array[Array[Double]] = {
    val down = new Array[Array[Double]](nodes.length)
    down(0) = Array.fill(nodes(0).rows.length)(1.0)
    for (v <- nodes.indices) { // parents come before children in `nodes`
      val node = nodes(v)
      val kids = node.children
      val keyIdx = kids.map(c => node.localIdxOfGlobals(nodes(c).sharedGlobal))
      val toChild = Array.fill(kids.length)(mutable.HashMap.empty[Key, Double].withDefaultValue(0.0))
      for (i <- node.rows.indices if down(v)(i) > 0) {
        val keys = keyIdx.map(keyOf(node.rows(i), _))
        val m = kids.indices.map(ci => unfiltered.msgs(kids(ci)).get(keys(ci)).fold(0.0)(_.total))
        for (ci <- kids.indices) {
          val d = kids.indices.foldLeft(down(v)(i))((acc, cj) => if (cj == ci) acc else acc * m(cj))
          if (d > 0) toChild(ci)(keys(ci)) += d
        }
      }
      for (ci <- kids.indices) {
        val child = nodes(kids(ci))
        val shared = child.localIdxOfGlobals(child.sharedGlobal)
        down(kids(ci)) = child.rows.map(r => toChild(ci)(keyOf(r, shared)))
      }
    }
    Array.tabulate(nodes.length)(v => Array.tabulate(down(v).length)(i => unfiltered.up(v)(i) * down(v)(i)))
  }

  // ------------------------------------------------------------------

  /** Per-query dynamic program (the bottom-up half of Yannakakis' message
    * passing): for every relation tuple passing the box filter, the number
    * of join results of its subtree it participates in (its up-count);
    * tuples grouped by the attributes shared with the parent, with cumulative
    * weights for top-down sampling.
    */
  private def buildWeights(box: Option[(Array[Double], Array[Double])]): Weights = {
    val msgs = Array.fill[mutable.HashMap[Key, Group]](nodes.length)(null)
    // children come after parents in `nodes`; process in reverse.
    val cnts = Array.fill[Array[Double]](nodes.length)(null)
    for (v <- nodes.indices.reverse) {
      val node = nodes(v)
      val rows = node.rows
      val cnt = new Array[Double](rows.length)
      var i = 0
      while (i < rows.length) {
        val row = rows(i)
        var c = if (passes(node, row, box)) 1.0 else 0.0
        if (c > 0) {
          var ci = 0
          while (c > 0 && ci < node.children.length) {
            val child = nodes(node.children(ci))
            val key = keyOf(row, node.localIdxOfGlobals(child.sharedGlobal))
            c *= msgs(node.children(ci)).get(key).map(_.total).getOrElse(0.0)
            ci += 1
          }
        }
        cnt(i) = c
        i += 1
      }
      cnts(v) = cnt
      if (v != 0) {
        // group rows by the attrs shared with the parent
        val sharedLocal = node.localIdxOfGlobals(node.sharedGlobal)
        val grouped = mutable.HashMap.empty[Key, mutable.ArrayBuffer[Int]]
        var j = 0
        while (j < rows.length) {
          if (cnt(j) > 0) {
            grouped.getOrElseUpdate(keyOf(rows(j), sharedLocal), mutable.ArrayBuffer.empty[Int]) += j
          }
          j += 1
        }
        val msg = mutable.HashMap.empty[Key, Group]
        grouped.foreach { case (k, idxs) => msg(k) = group(idxs.toArray, cnt) }
        msgs(v) = msg
      }
    }
    Weights(msgs, group(cnts(0).indices.filter(cnts(0)(_) > 0).toArray, cnts(0)), cnts)
  }

  /** The rows `ridx` with cumulative counts, for drawing one by weight. */
  private def group(ridx: Array[Int], cnt: Array[Double]): Group = {
    val cum = new Array[Double](ridx.length)
    var acc = 0.0
    var t = 0
    while (t < ridx.length) { acc += cnt(ridx(t)); cum(t) = acc; t += 1 }
    Group(ridx, cum, acc)
  }

  private def passes(node: Node, row: Array[Double],
                     box: Option[(Array[Double], Array[Double])]): Boolean = box match {
    case None => true
    case Some((lo, hi)) =>
      var k = 0
      while (k < node.attrIdx.length) {
        val g = node.attrIdx(k)
        val v = row(k)
        if (v < lo(g) || v > hi(g)) return false
        k += 1
      }
      true
  }

  private def keyOf(row: Array[Double], localIdx: Array[Int]): Key = {
    val a = new Array[Double](localIdx.length)
    var i = 0
    while (i < localIdx.length) { a(i) = row(localIdx(i)); i += 1 }
    new Key(a)
  }

  private def sample(w: Weights, z: Int, rng: Random): Array[Array[Double]] = {
    if (w.root.total <= 0) return Array.empty
    val out = new Array[Array[Double]](z)
    var s = 0
    while (s < z) {
      val tuple = new Array[Double](dim)
      descend(0, draw(w.root, rng), tuple, w, rng)
      out(s) = tuple
      s += 1
    }
    out
  }

  private def draw(g: Group, rng: Random): Int = {
    val u = rng.nextDouble() * g.total
    // smallest i with cum(i) > u
    var lo = 0; var hi = g.cum.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (g.cum(mid) > u) hi = mid else lo = mid + 1
    }
    g.rowIdx(lo)
  }

  private def descend(v: Int, rowI: Int, out: Array[Double], w: Weights, rng: Random): Unit = {
    val node = nodes(v)
    val row = node.rows(rowI)
    var k = 0
    while (k < node.attrIdx.length) { out(node.attrIdx(k)) = row(k); k += 1 }
    var ci = 0
    while (ci < node.children.length) {
      val cIdx = node.children(ci)
      val child = nodes(cIdx)
      val key = keyOf(row, node.localIdxOfGlobals(child.sharedGlobal))
      val g = w.msgs(cIdx)(key)
      descend(cIdx, draw(g, rng), out, w, rng)
      ci += 1
    }
  }
}

object LocalJoinIndex {

  /** Wrapper giving Array[Double] value-based equality/hashing for HashMap keys. */
  final class Key(val a: Array[Double]) {
    override def hashCode(): Int = java.util.Arrays.hashCode(a)
    override def equals(o: Any): Boolean = o match {
      case k: Key => java.util.Arrays.equals(a, k.a)
      case _      => false
    }
  }

  /** Tuples of one relation sharing a parent-key, with cumulative subtree counts. */
  final case class Group(rowIdx: Array[Int], cum: Array[Double], total: Double)

  /** Per-node child messages, the root's group, and every row's up-count. */
  final case class Weights(msgs: Array[mutable.HashMap[Key, Group]], root: Group,
                           up: Array[Array[Double]])

  final case class Node(
      name: String,
      attrIdx: Array[Int],        // global attr index of each local column
      rows: Array[Array[Double]],
      children: Array[Int],       // indices into `nodes`
      sharedGlobal: Array[Int]    // global attr indices shared with the parent
  ) {
    private val globalToLocal: Map[Int, Int] = attrIdx.zipWithIndex.toMap
    def localIdxOfGlobals(gs: Array[Int]): Array[Int] = gs.map(globalToLocal)
  }

  /** Collect each relation once (cast to double) and build the fully
    * reduced index: a first index over the collected rows gives every row its
    * join participation, and only rows with a positive count are kept.
    * Columns are stored in global attribute order and rows in a fixed
    * lexicographic order, so the index depends on the rows alone, not on
    * Spark's partitioning or plan: `build(q)` equals
    * `build(Yannakakis.fullReduce(q))`.
    * A null join key makes its row dangle, as in SQL; any other null, or a
    * NaN, is rejected. -0.0 is stored as 0.0, since `Key` compares bit
    * patterns and Spark's equi-join treats the two as equal.
    */
  def build(q: AcyclicQuery): LocalJoinIndex = {
    val attrs = q.allAttrs.toArray
    val attrIndex = attrs.zipWithIndex.toMap
    val joinAttrs = q.allAttrs.filter(a => q.relations.count(_.attrSet(a)) > 1).toSet
    val tree = q.rooted(q.relations.head.name)

    val buf = mutable.ArrayBuffer.empty[Node]
    def flatten(t: JoinTree, parentAttrs: Set[String]): Int = {
      val myIdx = buf.length
      val cols = t.rel.attrs.sortBy(attrIndex)
      buf += Node(
        t.rel.name,
        cols.map(attrIndex).toArray,
        collectRows(t.rel, cols, joinAttrs),
        Array.empty,
        cols.filter(parentAttrs.contains).map(attrIndex).toArray
      )
      val kids = t.children.map(c => flatten(c, cols.toSet)).toArray
      buf(myIdx) = buf(myIdx).copy(children = kids)
      myIdx
    }
    flatten(tree, Set.empty)
    val participation = new LocalJoinIndex(attrs, buf.toArray).participation
    new LocalJoinIndex(attrs, buf.toArray.zip(participation).map { case (node, c) =>
      node.copy(rows = node.rows.zip(c).collect { case (row, n) if n > 0 => row }) })
  }

  /** The relation's `cols` as doubles, under the input contract of [[build]],
    * in lexicographic order over its join attributes first, so that rows
    * sharing a join key are adjacent when the count passes look them up.
    */
  private def collectRows(rel: Relation, cols: Seq[String],
                          joinAttrs: Set[String]): Array[Array[Double]] = {
    val keysFirst = cols.indices.sortBy(i => !joinAttrs(cols(i)))
    rel.df.select(cols.map(c => col(c).cast("double")): _*).collect()
      .filterNot(r => cols.indices.exists(i => r.isNullAt(i) && joinAttrs(cols(i))))
      .map { r =>
        Array.tabulate(cols.length) { i =>
          require(!r.isNullAt(i), s"relation ${rel.name}: null in column ${cols(i)}")
          val v = r.getDouble(i)
          require(!v.isNaN, s"relation ${rel.name}: NaN in column ${cols(i)}")
          v + 0.0 // -0.0 + 0.0 == +0.0
        }
      }
      .sortBy(r => keysFirst.map(r))(
        Ordering.Implicits.seqOrdering[IndexedSeq, Double](Ordering.Double.TotalOrdering))
  }
}
