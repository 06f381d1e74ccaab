package repro.core

import repro.cluster.{GammaAlg, Objective, Weighted}
import repro.cluster.Weighted.Pt
import repro.join.LocalJoinIndex
import scala.util.Random

/** Axis-parallel box over a d_u-dimensional subspace. */
final case class Box(lo: Array[Double], hi: Array[Double]) {
  def dim: Int = lo.length
  def contains(p: Pt): Boolean = {
    var i = 0
    while (i < dim) { if (p(i) < lo(i) || p(i) >= hi(i)) return false; i += 1 }
    true
  }
  def diam: Double = {
    var s = 0.0; var i = 0
    while (i < dim) { val d = hi(i) - lo(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
  def intersects(o: Box): Boolean = {
    var i = 0
    while (i < dim) { if (hi(i) <= o.lo(i) || o.hi(i) <= lo(i)) return false; i += 1 }
    true
  }
  /** Does this box fully contain `o`? */
  def covers(o: Box): Boolean = {
    var i = 0
    while (i < dim) { if (o.lo(i) < lo(i) || o.hi(i) > hi(i)) return false; i += 1 }
    true
  }
}

object Geometry {
  /** Euclidean distance from a point to a box (0 if inside) — phi(x, □). */
  def pointBoxDist(p: Pt, b: Box): Double = {
    var s = 0.0; var i = 0
    while (i < b.dim) {
      val d = if (p(i) < b.lo(i)) b.lo(i) - p(i) else if (p(i) > b.hi(i)) p(i) - b.hi(i) else 0.0
      s += d * d
      i += 1
    }
    math.sqrt(s)
  }

  /** min over x in X of phi(x, □) — phi(X, □). */
  def setBoxDist(xs: Array[Pt], b: Box): Double = {
    var best = Double.PositiveInfinity; var i = 0
    while (i < xs.length) { val d = pointBoxDist(xs(i), b); if (d < best) best = d; i += 1 }
    best
  }
}

/** Identifier of one cell of the exponential grid of center `center`:
  * ring `j`, integer coordinates within the ring-j grid.
  */
final case class CellKey(center: Int, j: Int, coords: Vector[Long])

/** The exponential grid of Section 3.1 around one center x_i.
  *
  * Q_j is the axis-parallel cube of side 2^j * phi centered at x_i
  * (j = 0..jMax); ring V_j = Q_j \ Q_{j-1} (V_0 = Q_0) is tiled by a uniform
  * grid of side s_j = 2^j * phi / cellsPerSide. The paper's side is
  * eps' 2^j phi / (10 alpha d_u), i.e. cellsPerSide = 10 alpha d_u / eps' —
  * astronomically fine; `cellsPerSide` is the practical knob (DESIGN.md §2.2).
  */
final class ExpGrid(val center: Pt, val phi: Double, val cellsPerSide: Int, val jMax: Int) {
  require(phi > 0, "phi must be positive")
  require(cellsPerSide >= 2 && cellsPerSide % 2 == 0, "cellsPerSide must be even and >= 2")
  val dim: Int = center.length

  private def side(j: Int): Double = math.pow(2.0, j) * phi
  def cellSide(j: Int): Double = side(j) / cellsPerSide

  /** Ring index of a point: smallest j with ||t - x||_inf <= 2^(j-1) phi
    * (capped at jMax; points beyond Q_jMax land in ring jMax).
    */
  def ringOf(p: Pt): Int = {
    var r = 0.0; var i = 0
    while (i < dim) { val d = math.abs(p(i) - center(i)); if (d > r) r = d; i += 1 }
    if (r <= phi / 2) 0
    else math.min(jMax, math.ceil(math.log(2 * r / phi) / math.log(2.0)).toInt)
  }

  /** The cell of point p: ring + integer grid coordinates at that ring's
    * resolution. Every point maps to exactly one cell of this grid.
    */
  def cellOf(centerIdx: Int, p: Pt): CellKey = {
    val j = ringOf(p)
    val s = cellSide(j)
    val coords = Vector.tabulate(dim)(i => math.floor((p(i) - center(i)) / s).toLong)
    CellKey(centerIdx, j, coords)
  }

  def boxOf(key: CellKey): Box = {
    val s = cellSide(key.j)
    val lo = Array.tabulate(dim)(i => center(i) + key.coords(i) * s)
    val hi = Array.tabulate(dim)(i => center(i) + (key.coords(i) + 1) * s)
    Box(lo, hi)
  }

  /** Enumerate all cells of ring j (for the deterministic Algorithm 1):
    * coordinates covering Q_j minus, for j >= 1, those fully inside Q_{j-1}.
    * The coordinate range is closed on both sides so boundary points (whose
    * ring test is inclusive) are covered; the resulting overlap with ring
    * j+1's area is harmless because processed cells are excluded via G.
    */
  def cellsOfRing(centerIdx: Int, j: Int): Iterator[CellKey] = {
    val half = cellsPerSide / 2 // cells per half-side of Q_j
    val range = (-half.toLong) to half.toLong
    def inHole(coords: Vector[Long]): Boolean =
      // Q_{j-1} has half the side of Q_j: at ring-j resolution its half-side
      // spans cellsPerSide/4 cells; only exact when cellsPerSide % 4 == 0,
      // otherwise we keep the cell (over-covering is safe, it only means a
      // cell may be visited at two resolutions; counts exclude overlap).
      j >= 1 && cellsPerSide % 4 == 0 && {
        val h = cellsPerSide / 4
        coords.forall(c => c >= -h && c < h)
      }
    def rec(i: Int, acc: Vector[Long]): Iterator[Vector[Long]] =
      if (i == dim) Iterator.single(acc)
      else range.iterator.flatMap(c => rec(i + 1, acc :+ c))
    rec(0, Vector.empty).filterNot(inHole).map(CellKey(centerIdx, j, _))
  }
}

object ExpGrid {
  /** jMax such that Q_jMax covers every tuple at max distance
    * `ratio * phi` from its center: 2^(jMax-1) >= ratio. For k-median the
    * ratio is alpha*n (phi = r/(alpha n), per-tuple distance <= r); for
    * k-means it is sqrt(alpha*n) (phi = sqrt(r/(alpha n)), squared distance
    * <= r). The paper uses the looser 2 log(alpha n) everywhere.
    */
  def jMaxFor(ratio: Double): Int =
    math.max(1, math.ceil(math.log(2 * math.max(ratio, 2.0)) / math.log(2.0)).toInt)
}

/** The skeleton Algorithms 1 and 2 share (Section 3): one exponential grid
  * around each x_i in X, the cells that pass condition (3), and the
  * gamma-clustering of the resulting coreset. The engines differ only in how
  * a kept cell gets its weight.
  */
private[core] object GridWalk {
  /** One grid per center of `x`, with phi and ring count for the objective. */
  def grids(obj: Objective, alpha: Double, r: Double, n: Double, cellsPerSide: Int,
            x: Array[Pt]): Array[ExpGrid] = {
    val phi = SubSpace.phiFor(obj, r, alpha, n)
    val jMax = ExpGrid.jMaxFor(SubSpace.ringRatio(obj, alpha, n))
    x.map(c => new ExpGrid(c, phi, cellsPerSide, jMax))
  }

  /** The candidate cells of Algorithms 1 and 2: center by center, ring by
    * ring, in `cellsOfRing` order, keeping the cells that meet the data's
    * bounding box on `dims` and pass condition (3). A cell outside the data
    * box holds no join result (every join coordinate is an input
    * coordinate), so skipping it is exact.
    */
  def cells(grids: Array[ExpGrid], index: LocalJoinIndex, dims: Array[Int]): Iterator[Box] = {
    val x = grids.map(_.center)
    val dataBox = Box(
      SubSpace.project(index.bounds._1, dims),
      SubSpace.project(index.bounds._2, dims).map(v => math.nextUp(v)))
    for {
      i <- grids.indices.iterator
      j <- (0 to grids(i).jMax).iterator
      key <- grids(i).cellsOfRing(i, j)
      box = grids(i).boxOf(key)
      if box.intersects(dataBox) && SubSpace.condition3(x(i), x, box)
    } yield box
  }

  /** Clusters the coreset with `gamma`; r_u is its cost times `rUFactor`. */
  def finish(pts: Array[Pt], w: Array[Double], k: Int,
             gamma: GammaAlg, rng: Random, rUFactor: Double): ClusterOut = {
    val s = gamma.cluster(pts, w, k, rng)
    ClusterOut(s, Weighted.cost(pts, w, s, gamma.objective) * rUFactor, pts, w)
  }
}
